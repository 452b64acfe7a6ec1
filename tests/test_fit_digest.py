import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_seed_same_digests_other_seed_other_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(ROOT)  # perfbench, which the script reads its workloads from
    spec = importlib.util.spec_from_file_location("fit_digest", os.path.join(ROOT, "scripts", "fit_digest.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    from perfbench import bench

    tiny = bench.Workload("tiny", "fit", dict(num_users=50, num_items=100, num_entities=125, ratings_per_user=12),
                          dict(embed_dim=8, hops=2, ripple_size=8, neighbor_size=4, conv_layers=1, batch_size=128,
                               epochs=1, patience=0, precision="f32"))
    first, again, other = (script.digests(tiny, seed, str(tmp_path / str(k))) for k, seed in enumerate((1, 1, 2)))
    assert list(first)[:2] == ["history", "test_auc"] and list(first)[-3:] == ["ripple_table", "neighbor_table", "all"]
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)
