"""tools/fingerprint.py: a dump compares equal to itself, a one-ulp change shows
with its size in ulps, and the prepared samples of every case, batches included, and the
default-config cases' report rows are in it."""

import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fingerprint(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "fingerprint.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_compare_reports_exactly_the_perturbed_array(tmp_path):
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    assert _fingerprint("dump", a).returncode == 0
    with np.load(a) as f:
        arrays = dict(f)
    key = "toy/step1/grad/lane_bias.wc"
    assert key in arrays and len(arrays) > 1000
    # every prepared sample of every case, topology and hop counts included
    for case, count in (("toy", 8), ("default", 5), ("micro", 1), ("stacked", 4), ("mixed", 4)):
        sample = f"{case}/sample{count - 1}"
        assert f"{case}/sample{count}/agent_features" not in arrays
        for field in ("agent_features", "observed", "agent_positions", "lane_features",
                      "lane_positions", "ground_truth", "frame_origin", "frame_heading",
                      *(f"topology/{m}" for m in ("m_p", "m_s", "m_l", "m_r", "pre_hops",
                                                  "suc_hops", "m_pre_spd", "m_suc_spd",
                                                  "m_c"))):
            assert f"{sample}/{field}" in arrays, f"{sample}/{field}"
    assert arrays["micro/sample0/topology/suc_hops"].tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    # the stacked batch trains both lane layers and their one bias set
    assert {f"stacked/step2/grad/lane{i}.attn.wq" for i in (0, 1)} <= arrays.keys()
    assert "stacked/step2/grad/lane_bias.wp" in arrays and "stacked/sample3/observed" in arrays
    # evaluate_model's rows, one value per target, for the two default-config cases only
    for case, targets in (("default", 5), ("stacked", 4)):
        for field in ("min_ade", "min_fde", "b_min_fde", "miss"):
            assert arrays[f"{case}/step2/report/{field}"].shape == (targets,)
    assert not any("/report/" in k for k in arrays if k.split("/")[0] in ("toy", "micro", "mixed"))
    original = arrays[key]
    arrays[key] = original.copy()
    arrays[key].flat[0] = np.nextafter(original.flat[0], np.inf)
    ulp = arrays[key].flat[0] - original.flat[0]
    np.savez(b, **arrays)

    same = _fingerprint("compare", a, a)
    assert same.returncode == 0 and f"0 of {len(arrays)} arrays differ" in same.stdout
    changed = _fingerprint("compare", a, b)
    assert changed.returncode == 1
    size = f"max |a-b| {ulp:.3e}, |a-b|/|a| {ulp / np.linalg.norm(original):.3e}, max 1 ulp"
    assert changed.stdout.splitlines() == [f"{key}: differs, {size}",
                                           f"1 of {len(arrays)} arrays differ"]

    c = str(tmp_path / "c.npz")
    reshaped, dropped = "micro/step0/loss/total", "micro/step0/loss/goal"
    arrays[reshaped] = arrays[reshaped].reshape(1)
    del arrays[dropped]
    np.savez(c, **arrays)
    lines = _fingerprint("compare", a, c).stdout.splitlines()
    assert f"{dropped}: only in {a}" in lines
    assert f"{reshaped}: differs in shape, () against (1,)" in lines
    assert lines[-1] == f"3 of {len(arrays) + 1} arrays differ"
