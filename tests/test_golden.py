"""Golden digests: the SHA-256 of every shipped output on the reference rig.

Each subcommand runs in this process on configs/hex_table1.json with
designs at 26.5 °C, and on the 3-state toy plant for output feedback.  A
change that moves one bit of a design, a trajectory, a metric or a report
changes its digest here; a change meant to keep the bits keeps them all.
The 60 000-step run of the benchmark is left out for time.
"""

import hashlib
import json
from pathlib import Path

import pytest

import hexreg
from hexreg.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "hex.json":
        "7b033ecf9395a3cb730c9d8452d660032cbf6fbbcb4eeacec2dbf1e0cb4a298d",
    "fwd.json":
        "a725774e4229a0280ceba9fccffc7e4c5743afbc197d94ff6ccd9c654dfae39b",
    "io.json":
        "4e5bfc58730fc30fa7d37580aefdf143b264739c986533ff08083fa3e67a5f99",
    "fwd/experiment2.csv":
        "ace2b0cb78e939590aa47f7cf66b42c0042c4d6cd0c66e6a064ae841b76db139",
    "fwd/experiment2.metrics.json":
        "0a8016861432812f1d44e0b74af3d68d25f3dd2cbd73494e2f4696be4331af2c",
    "io/experiment2.csv":
        "298d0e6b50ae0356a2e76816c2db31d013b1be03700d1b41cdc97a5959f1a8c5",
    "io/experiment2.metrics.json":
        "23b84bf6331471b3167e6396347db26c93b4a9b29bb7f40a3e3966a694e7274b",
    "cmp.json":
        "31e24e3c11e3619983bd9f772ff216a087f70d18b9764d7f861705aaeb8b6ecc",
    "reach.json":
        "27c22b40d8fa0c88382af6155ac9b84c1528b521b47c68605a572128bc8502ec",
    "ss_ref.json":
        "920484c6bf2c2ad06b31edb4cb336e3426fa1f050e112458ae01bf4a5be2889c",
    "toy_of.json":
        "4e361b36d3f9a37f04fd915656f65507cb2c23f0614c5faa05b53434ce0db0c5",
    "of/of_scn.csv":
        "c58389dc3a41281d483704ba7673816336654902dfbbf10ca9f0f2fe56475cb6",
    "of/of_scn.metrics.json":
        "1c2c4cadbfd85279d5dbba9ba5cb2f3cc4a680ecdb3d49b1e8a602548d844ce1",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, synthetic_observable):
    """Run every command once and return {output name: SHA-256 hex}."""
    root = tmp_path_factory.mktemp("golden")
    hex_json, exp2 = str(root / "hex.json"), str(CONFIGS / "experiment2.json")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("build-model", CONFIGS / "hex_table1.json", "--out", hex_json)
    for law, name in (("forwarding", "fwd"), ("integral_only", "io")):
        run("design", hex_json, "--law", law, "--ref", "26.5", "--units", "C",
            "--out", root / f"{name}.json")
    run("simulate", hex_json, root / "fwd.json", exp2, "--out", root / "fwd")
    run("simulate", hex_json, root / "io.json", exp2, "--law", "integral_only",
        "--out", root / "io")
    run("compare-pi", hex_json, root / "fwd.json", exp2,
        CONFIGS / "experiment2_pi.json", "--out", root / "cmp.json")
    run("steady-state", hex_json, "--out", root / "reach.json")
    run("steady-state", hex_json, "--ref", "26.5", "--units", "C",
        "--out", root / "ss_ref.json")

    toy = synthetic_observable
    hexreg.save_system(root / "toy.json", toy)
    # the designed observer gain is zero (see conftest.synthetic_observer):
    # the output-feedback run's estimate has no innovation correction
    run("design", root / "toy.json", "--law", "output_feedback", "--uss", "0.0",
        "--out", root / "toy_of.json")
    (root / "of_scn.json").write_text(json.dumps({
        "units": "K", "law": "output_feedback", "t_end": 2.0, "dt": 0.01,
        "reference_schedule": [[0.0, hexreg.equilibrium_at(toy, 0.05).y_ss]],
        "x0": hexreg.equilibrium_at(toy, -0.05).x_ss.tolist(),
        "x_hat0": [0.0, 0.0, 0.0]}))
    run("simulate", root / "toy.json", root / "toy_of.json", root / "of_scn.json",
        "--out", root / "of")
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in GOLDEN}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_digest(outputs, name):
    assert outputs[name] == GOLDEN[name], (
        f"{name}: SHA-256 {outputs[name]} differs from the golden {GOLDEN[name]}")
