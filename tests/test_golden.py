"""Golden outputs: SHA-256 digests of CLI data files pinned byte for byte.

Refactors of the integrator, the model evaluators and the CSV/JSON
writers must leave every printed digit in place.  A change that moves
an output on purpose updates its digest here and says in CHANGES.md
which outputs moved and why.
"""

import hashlib

import pytest

from accessprice import cli

# name -> (argv, {suffix appended to {out}: sha256 of that file})
GOLDEN = {
    "scenario_section5_h0.1": (
        ["scenario", "--config", "{cfg}/section5.json", "--step", "0.1",
         "--out-prefix", "{out}"],
        {
            "_surge.csv": "a32f5ba3429a550cf40b01ab15a62ad2c4cb4debaa3970bfd9a34461aa5db2ca",
            "_saturated.csv": "eb7e38c5fe62f9ad8fbd47fa6432f071b0251779a407c3ca6e82db6b868ff3dc",
            "_fairness_surge.csv": "a8cc0e96bb32f333d7972382afb6ea3d813eedafc069d6cfc7f706362df72806",
            "_fairness_saturated.csv": "b0c889cc1176a42a40d15b8f8800cbfa0b69d03e1873de4261e31fadb281aa79",
            "_summary.json": "02525cdc147a08ea86d1c43af6885665254a8b71fffb88a2d010d916d9c807b8",
        },
    ),
    # x0 = (150, 50) drives q onto the admittance bound q_ad = 60, so the
    # chattering run differs from the normal one
    "simulate_ref_normal": (
        ["simulate", "--config", "{cfg}/ref.json", "--mode", "normal",
         "--x0", "150,50", "--step", "0.01", "--out", "{out}"],
        {"": "bc421eb2fb5cf87dab3da682cd0f5e64b92672847222f0e0354b50914567513f"},
    ),
    "simulate_ref_chattering": (
        ["simulate", "--config", "{cfg}/ref.json", "--mode", "chattering",
         "--x0", "150,50", "--step", "0.01", "--out", "{out}"],
        {"": "ece5de5bc5be621e8d656ac662bf65d5d9c0625dd7ba2e9052411dbe55580066"},
    ),
    "simulate_competitive": (
        ["simulate", "--config", "{cfg}/competitive.json", "--mode", "competitive",
         "--k-u", "1", "--step", "0.01", "--out", "{out}"],
        {"": "7f38c0daf53ca989c4e0621da785eb288449ddd97d60279f9ced5b13397d94b0"},
    ),
}


def golden_digests(name, config_dir, tmp_path):
    """Run one golden command and return {file suffix: sha256 hex}."""
    argv, expected = GOLDEN[name]
    out = str(tmp_path / name)
    code = cli.run([a.format(cfg=config_dir, out=out) for a in argv])
    assert code == 0
    return {
        suffix: hashlib.sha256(open(out + suffix, "rb").read()).hexdigest()
        for suffix in expected
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, config_dir, tmp_path):
    assert golden_digests(name, config_dir, tmp_path) == GOLDEN[name][1]
