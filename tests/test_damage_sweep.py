"""A seeded damage sweep over every file that ``prep``, ``train`` and ``eval`` read.

Each case damages one file of a clean run on tiny generated data with
one mutator (a flipped, deleted or inserted byte, a truncation, a line
duplicated, reversed, extended or emptied, CRLF breaks, or a directory
in place of the file), runs the command that reads it through
``cli.main``, and puts the file back.  Every run must return 0, 2 or 3
without raising, and a non-zero exit prints exactly one ``error:``
line.  A run that exits 0 on a damaged file that a checksum guards (the
KG, whose vocabularies and tables the manifest checks; the two
vocabulary files; ``model.npz``, whose zip members carry a CRC) must
write the clean run's CSV.  The seeds and the case list are fixed; each
defect a sweep found is also a named case of
``test_cli.test_malformed_input_exit_code_and_location``.
"""

import contextlib
import io
import os
import shutil

import numpy as np
import pytest

from ripplerec.cli import main
from ripplerec.synthetic import generate, tiny_spec

SEEDS = (0, 1)
CONFIG = """kg = data/kg.tsv
ratings = data/ratings.tsv
item_map = data/item_map.tsv
out = run
threshold = 4
embed_dim = 4
hops = 2
ripple_size = 8
neighbor_size = 4
conv_layers = 1
batch_size = 64
epochs = 1
patience = 0
"""
# (file, the command that reads it): the inputs of prep, every file prep writes, and the snapshot
TARGETS = [("data/kg.tsv", "prep"), ("data/kg.tsv", "eval"), ("data/ratings.tsv", "prep"),
           ("data/item_map.tsv", "prep"), ("run/train.tsv", "train"), ("run/train.tsv", "eval"),
           ("run/validation.tsv", "train"), ("run/validation.tsv", "eval"), ("run/test.tsv", "train"),
           ("run/test.tsv", "eval"), ("run/entity_vocab.tsv", "eval"), ("run/relation_vocab.tsv", "eval"),
           ("run/user_vocab.tsv", "eval"), ("run/item_vocab.tsv", "eval"), ("run/item_entities.tsv", "eval"),
           ("run/prep_report.txt", "eval"), ("run/prep_meta.txt", "train"), ("run/prep_meta.txt", "eval"),
           ("run/model.npz", "eval"), ("run/model.manifest.txt", "eval")]
PATHS = list(dict.fromkeys(path for path, _ in TARGETS))  # a file read by two commands gets one damage
CHECKSUMMED = {"data/kg.tsv", "run/entity_vocab.tsv", "run/relation_vocab.tsv", "run/model.npz"}
ARGV = {"prep": ["prep", "--config", "cfg.txt", "--out", "reprep"], "train": ["train", "--config", "cfg.txt"],
        "eval": ["eval", "--config", "cfg.txt"]}
CSV = {"train": "run/test_report.csv", "eval": "run/eval_test.csv"}  # what a run that exits 0 writes


def _insert(text):
    def mutate(data, rng, sep):
        at = int(rng.integers(len(data) + 1))
        return data[:at] + text + data[at:]
    return mutate


def _flip(data, rng, sep):
    at = int(rng.integers(len(data)))
    return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1:]


def _delete(data, rng, sep):
    at = int(rng.integers(len(data)))
    return data[:at] + data[at + 1:]


def _truncate(data, rng, sep):
    return data[:int(rng.integers(len(data)))]


def _line_edit(edit):
    """A mutator that replaces one seeded line (its break kept) by ``edit(line, sep)``, which may be several."""
    def mutate(data, rng, sep):
        lines = data.splitlines(keepends=True)
        k = int(rng.integers(len(lines)))
        body = lines[k].rstrip(b"\r\n")
        lines[k] = edit(body, sep) + lines[k][len(body):]
        return b"".join(lines)
    return mutate


MUTATORS = {
    "flip": _flip,
    "delete": _delete,
    "insert_tab": _insert(b"\t"),
    "insert_newline": _insert(b"\n"),
    "insert_cr": _insert(b"\r"),
    "insert_xff": _insert(b"\xff"),
    "insert_digits": _insert(b"9" * 24),
    "truncate": _truncate,
    "duplicate_line": _line_edit(lambda line, sep: line + b"\n" + line),
    "reverse_line": _line_edit(lambda line, sep: sep.join(reversed(line.split(sep)))),
    "extend_line": _line_edit(lambda line, sep: line + sep + b"1"),
    "empty_line": _line_edit(lambda line, sep: b""),
    "crlf": lambda data, rng, sep: data.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n"),
    "directory": None,  # the file is replaced by an empty directory
}
CASES = [(path, command, mutator, seed) for path, command in TARGETS for mutator in MUTATORS
         for seed in (SEEDS if MUTATORS[mutator] else SEEDS[:1])]


def _files(root):
    """Every file under ``root``, as a normalized path from the working directory."""
    return {os.path.normpath(os.path.join(top, name)) for top, _, names in os.walk(root) for name in names}


@pytest.fixture
def clean_run(tmp_path, monkeypatch):
    """Relative path -> bytes of every file of a clean run: data, config, prep outputs, snapshot and CSVs."""
    monkeypatch.chdir(tmp_path)
    generate(tiny_spec(seed=1), "data")
    with open("cfg.txt", "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("prep", "train", "eval"):
            assert main([command, "--config", "cfg.txt"]) == 0
    files = {}
    for path in _files("."):
        with open(path, "rb") as fh:
            files[path] = fh.read()
    return files


def _restore(files):
    """Put every file of the clean run back, and remove what a case added."""
    shutil.rmtree("reprep", ignore_errors=True)
    for path in _files("run") - files.keys():
        os.remove(path)
    for path, data in files.items():
        if os.path.isdir(path):
            os.rmdir(path)
        elif os.path.exists(path):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    continue
        with open(path, "wb") as fh:
            fh.write(data)


def _damage(path, mutator, seed, data):
    mutate = MUTATORS[mutator]
    if mutate is None:
        os.remove(path)
        os.mkdir(path)
        return
    sep = b" = " if path.endswith(("meta.txt", "manifest.txt")) else b"\t"
    rng = np.random.default_rng([seed, PATHS.index(path), list(MUTATORS).index(mutator)])
    with open(path, "wb") as fh:
        fh.write(mutate(data, rng, sep))


def test_every_damaged_input_exits_0_2_or_3_with_one_error_line(clean_run, capsys):
    faults = []
    for path, command, mutator, seed in CASES:
        case = f"{path} {mutator} seed {seed} ({command})"
        _damage(path, mutator, seed, clean_run[path])
        csv = CSV.get(command)
        if csv:
            os.remove(csv)
        capsys.readouterr()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(ARGV[command])
        except Exception as err:  # a traceback at the command line
            faults.append(f"{case}: raised {type(err).__name__}: {err}")
            rc = None
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if rc is not None and rc not in (0, 2, 3):
            faults.append(f"{case}: exit {rc}")
        elif rc and len(errors) != 1:
            faults.append(f"{case}: exit {rc} with {len(errors)} error lines: {err!r}")
        elif rc == 0 and path in CHECKSUMMED and csv:
            with open(csv, "rb") as fh:
                if fh.read() != clean_run[csv]:
                    faults.append(f"{case}: exit 0 and a CSV that differs from the clean run's")
        _restore(clean_run)
    assert not faults, "\n".join(faults)
