"""Golden outputs: SHA-256 digests of CLI data files pinned byte for byte.

Refactors of the integrator, the model evaluators and the CSV/JSON
writers must leave every printed digit in place.  A change that moves
an output on purpose updates its digest here and says in CHANGES.md
which outputs moved and why.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from accessprice import cli, dynamics, regions

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
            "_summary.json": "5b02344179b22c14152f40c06952bf1b1d67982200575f323fdc50186706a18a",
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
    "fixed_points_ref": (
        ["fixed-points", "--config", "{cfg}/ref.json", "--out", "{out}"],
        {"": "6bc0f345e1d6a52bfdf55395e3cfe7763e30ac095688e8baa4b03e14e9f06719"},
    ),
    "fixed_points_section5_saturated": (
        ["fixed-points", "--config", "{cfg}/section5.json", "--mode", "saturated",
         "--k-u", "0.5", "--out", "{out}"],
        {"": "4c7f59e2d696bf461b826aa4c7185710d916d83b68b1f815b90fa9366919873e"},
    ),
    "classify_ref": (
        ["classify", "--config", "{cfg}/ref.json", "--out", "{out}"],
        {"": "a5d35f4202f11579cc57e94fa99f31af64ceba46bfd17744598018ccb4f2bf7c"},
    ),
    "phase_ref": (
        ["phase", "--config", "{cfg}/ref.json", "--resolution", "20", "--out", "{out}"],
        {"": "49ce0edc4700c7e76b734bd574583e2ea457e7cfd83ca4808ee20dd17f3d2aa6"},
    ),
    "doa_ref": (
        ["doa", "--config", "{cfg}/ref.json", "--out", "{out}"],
        {"": "2efe049458153fba913fc257054713f213b2bb44ff9acf609a26a96518c45313"},
    ),
    # default step, thinned rows
    "simulate_ref_every7": (
        ["simulate", "--config", "{cfg}/ref.json", "--x0", "150,50", "--every", "7",
         "--out", "{out}"],
        {"": "95a43fc7be4c14e35640346ee41b9165a49e7b9292a7dfc429514340dd7d60b0"},
    ),
    "scenario_section5_h0.1_every10": (
        ["scenario", "--config", "{cfg}/section5.json", "--step", "0.1", "--every", "10",
         "--out-prefix", "{out}"],
        {
            "_surge.csv": "649720fe754c3913e175def2f10647b28ec667b4bfa8476098ed9a878751134f",
            "_saturated.csv": "1f711948b46b700da2e0793124f77537ccbe211580f7a6f0dd8e3f74b5a83b1d",
            "_fairness_surge.csv": "75436215b129a3e0db86b3e50b207fef1a913fb1f3a7195d1af9961c4a9bca1d",
            "_fairness_saturated.csv": "c276b0af7b1e0daf65683bfbb0175c3401270538be9ed75412c337aae3955db0",
            "_summary.json": "5b02344179b22c14152f40c06952bf1b1d67982200575f323fdc50186706a18a",
        },
    ),
    # the fields the scenario legs step at the default step, on the cubic
    # alpha and the saturated price; switched-full crosses both burst edges
    "simulate_section5_saturated": (
        ["simulate", "--config", "{cfg}/section5.json", "--mode", "saturated", "--k-u", "0.5",
         "--out", "{out}"],
        {"": "a38fd4fc185a25ed380d7c70249390ffcb40dda4bfc0d5d7daa4eac374ce410f"},
    ),
    "simulate_section5_competitive": (
        ["simulate", "--config", "{cfg}/section5.json", "--mode", "competitive", "--k-u", "0.5",
         "--out", "{out}"],
        {"": "9ee59aa93f259c599c74830f63ee88ce3337bb07dfc2b509423fccbf52eb13de"},
    ),
    "simulate_section5_switched_full": (
        ["simulate", "--config", "{cfg}/section5.json", "--mode", "switched-full", "--t1", "320",
         "--out", "{out}"],
        {"": "4864af86a18ac5a52ba099535541ad8a5a6c59cb6407070f85f6b7592a3731f8"},
    ),
    # the equilibria of every shipped config in each mode it runs, at K_U
    # away from the folds where a root pair is born: 2-D and 3-D roots,
    # one and three of them, and their classes
    **{f"{cmd.replace('-', '_')}_{name}": (
        [cmd, "--config", f"{{cfg}}/{config}.json", *flags, "--out", "{out}"], {"": digest})
       for cmd, name, config, flags, digest in [
        ("fixed-points", "ref_chattering", "ref", ["--mode", "chattering"],
         "6bc0f345e1d6a52bfdf55395e3cfe7763e30ac095688e8baa4b03e14e9f06719"),
        ("classify", "ref_chattering", "ref", ["--mode", "chattering"],
         "bda6909c281d065b6d681f74c206fd2dde7f2f2d260982e747ef02cdf5735083"),
        ("fixed-points", "competitive_normal", "competitive", [],
         "495671f365c33cfb5eb573ea7115734872f1ea186bb7a5945203be3b32985bfe"),
        ("classify", "competitive_normal", "competitive", [],
         "7ee36263ea29291fe8b376553049daa400b1f385594923565926c255febc6cd3"),
        ("fixed-points", "competitive", "competitive", ["--mode", "competitive", "--k-u", "1"],
         "30deb218bb177596034b8aed05e74d5b9cc792d8ffeb858e06f360b3d637769c"),
        ("classify", "competitive", "competitive", ["--mode", "competitive", "--k-u", "1"],
         "0b124980f5d72d13e48bc5bf936cfb6a97a71b49442b42be9d0a7f03a84f3cda"),
        ("fixed-points", "section5_normal", "section5", [],
         "0ee35ef44119c59e9113ecccccb0babe5c9b7c18e76144445574cb71adca5f9e"),
        ("classify", "section5_normal", "section5", [],
         "d360539210c7fa0af4aa416783d88e99aee362b876d6fac0f4dcf2fa7c7b30c5"),
        ("fixed-points", "section5_saturated_1.5", "section5", ["--mode", "saturated", "--k-u", "1.5"],
         "0eb0965ea1d6910ee7aed360648f136224d8996149b5bbf05f1f466232fad9d2"),
        ("classify", "section5_saturated", "section5", ["--mode", "saturated", "--k-u", "0.5"],
         "3ae3d304bdf8af3e8e8540ae4e2ff93ba2f6271a183dec8c9cfe30ff13beccd2"),
        ("fixed-points", "section5_competitive", "section5", ["--mode", "competitive", "--k-u", "0.5"],
         "ac551536783d56d4382263b00a9ec22e44ea96b7ca046bf3fd19236853cb4fd0"),
        ("classify", "section5_competitive", "section5", ["--mode", "competitive", "--k-u", "0.5"],
         "8275c1b730c9cf8dc6bb19a63c077d17294bb7f5add9e7507711e9fb56db63d5"),
        ("fixed-points", "section5_switched_full", "section5", ["--mode", "switched-full"],
         "be6f27758a50e6d808a89fdf179fe56212b5b6ef215131ced2e3a0395a27e8a3"),
    ]},
}

# name -> (argv, sha256 of what the command printed on stdout)
STDOUT_GOLDEN = {
    "fixed_points_ref_stdout": (
        ["fixed-points", "--config", "{cfg}/ref.json"],
        "6bc0f345e1d6a52bfdf55395e3cfe7763e30ac095688e8baa4b03e14e9f06719",
    ),
    # an all-numeric table on stdout, thinned rows
    "simulate_ref_every50_stdout": (
        ["simulate", "--config", "{cfg}/ref.json", "--x0", "150,50", "--every", "50"],
        "c86c550a58defc600a44b1092d198330771c556df3aaea819be32173f7af9d2c",
    ),
    "validate_ref_stdout": (
        ["validate", "--config", "{cfg}/ref.json"],
        "d631ec880be8bc81781c1968495fce4b959e045e44ff6b952d129504b9d5bff6",
    ),
}


def golden_digests(name, config_dir, tmp_path):
    """Run one golden command and return {file suffix: sha256 hex}."""
    argv, expected = GOLDEN[name]
    out = str(tmp_path / name)
    code = cli.run([a.format(cfg=config_dir, out=out) for a in argv])
    assert code == 0
    return {
        suffix: hashlib.sha256(Path(out + suffix).read_bytes()).hexdigest()
        for suffix in expected
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, config_dir, tmp_path):
    assert golden_digests(name, config_dir, tmp_path) == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(STDOUT_GOLDEN))
def test_golden_stdout(name, config_dir, capsys):
    argv, digest = STDOUT_GOLDEN[name]
    capsys.readouterr()
    assert cli.run([a.format(cfg=config_dir) for a in argv]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode("utf-8")).hexdigest() == digest


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _final_states_ref(ref_cfg):
    x0s = np.random.default_rng(5).uniform((0.0, 0.0, 0.0), (300.0, 90.0, 0.0), (20, 3))
    region = regions.halfspaces(regions.build_polygon(ref_cfg))
    res = dynamics.final_states(
        ref_cfg, dynamics.NORMAL, x0s, 0.0, 20.0, raw_bounds=True, region=region
    )
    return _digest(res.states, res.raw_min, res.raw_max_q, res.region_excess)


def _settle_batch_ref(ref_cfg):
    x0s = np.random.default_rng(6).uniform((0.0, 0.0, 0.0), (300.0, 60.0, 0.0), (20, 3))
    res = dynamics.settle_batch(
        ref_cfg, dynamics.CHATTERING, x0s, (25.0, 40.0, 0.0), tol=1.0, t_cap=100.0, h=0.05
    )
    return _digest(res.settled, res.states, res.t_exit, res.settle_times, res.max_q)


# seeded batch runs on ref: every final state and diagnostic, bit for bit
BATCH_GOLDEN = {
    "final_states_ref_normal": (
        _final_states_ref, "09a46476591395f6275d64561072743e5074b9c7a928ebcadfecd96e4bc54596"
    ),
    "settle_batch_ref_chattering": (
        _settle_batch_ref, "e9252abd7c6aba32ec1f0adbe408d42f9686c647a073788251d244c89165e854"
    ),
}


@pytest.mark.parametrize("name", sorted(BATCH_GOLDEN))
def test_golden_batch(name, ref_cfg):
    run, digest = BATCH_GOLDEN[name]
    assert run(ref_cfg) == digest


def _final_states_competitive_trap(cfgs):
    # the trap-probe shape: starts inside the c09 cuboid, its half-spaces tracked
    cfg = cfgs["competitive"]
    k_u = cfg.k_u_schedule[0][2]
    cuboid = regions.build_cuboid(cfg, k_u=k_u)
    corner = np.array(cuboid.vertices[1])
    x0s = np.random.default_rng(7).uniform(0.05 * corner, 0.95 * corner, (20, 3))
    res = dynamics.final_states(
        cfg, dynamics.competitive_mode(k_u), x0s, 0.0, 50.0, 0.05,
        raw_bounds=True, region=regions.halfspaces(cuboid),
    )
    return _digest(res.states, res.raw_min, res.raw_max_q, res.region_excess)


def _settle_batch_section5_saturated(cfgs):
    x0s = np.random.default_rng(8).uniform((0.0, 0.0, 0.0), (300.0, 90.0, 0.0), (20, 3))
    res = dynamics.settle_batch(
        cfgs["section5"], dynamics.saturated_mode(0.5), x0s, (46.7, 34.0), tol=1.0,
        t_cap=100.0, h=0.05,
    )
    return _digest(res.settled, res.states, res.t_exit, res.settle_times, res.max_q)


def _settle_batch_competitive(cfgs):
    x0s = np.random.default_rng(10).uniform((0.0, 0.0, 0.0), (150.0, 90.0, 80.0), (20, 3))
    res = dynamics.settle_batch(
        cfgs["competitive"], dynamics.competitive_mode(1.0), x0s, (50.0, 40.0, 25.0),
        tol=1.0, t_cap=100.0, h=0.05,
    )
    return _digest(res.settled, res.states, res.t_exit, res.settle_times, res.max_q)


def _rhs_grid(config, mode, t=0.0):
    """rhs on seeded (n, 3) and (n, 2) states and on one of each, negative
    coordinates included (RK4 stage points overshoot the axes)."""
    def run(cfgs):
        x = np.random.default_rng(11).uniform((-10.0, -5.0, -5.0), (300.0, 110.0, 60.0), (200, 3))
        cfg = cfgs[config]
        return _digest(*(dynamics.rhs(cfg, mode, t, s) for s in (x, x[:, :2], x[0], x[0, :2])))
    return run


# the other modes and configs of the batch drivers and of rhs, bit for bit
MODE_GOLDEN = {
    "final_states_competitive_trap": (
        _final_states_competitive_trap,
        "bf8b643e0522318849e406793f1f662aab7bdb5edfbbb534419633b0c93955ad",
    ),
    "settle_batch_section5_saturated": (
        _settle_batch_section5_saturated,
        "83d471d2d94a2c79cb0890285fefaced5dc2409b2ea0c1f51a0855e971734398",
    ),
    "settle_batch_competitive": (
        _settle_batch_competitive,
        "6b3fe31e4cf4d393df57c68235207d8c70eee30e1c49b1b288c5bd134aa6f1ab",
    ),
    "rhs_ref_normal": (
        _rhs_grid("ref", dynamics.NORMAL),
        "a6745b647f39b3eeb8a62669cf4133cc666a7d8fd3a6e929f9b0447b4d06979e",
    ),
    "rhs_ref_chattering": (
        _rhs_grid("ref", dynamics.CHATTERING),
        "0e6f2eab97bc67c1b7b5b86563acece9d02969760a577cd43c2d4238e4d76e3b",
    ),
    "rhs_section5_saturated": (
        _rhs_grid("section5", dynamics.saturated_mode(0.5)),
        "582625dbec2213b5afe6160a31235a55f2b6dd3ae242ff8fa67bd4b91e8af567",
    ),
    "rhs_competitive": (
        _rhs_grid("competitive", dynamics.competitive_mode(1.0)),
        "81689ed72f93d60ccff4f3948d2acb3d636a70ce64667f88cbc2d5e17f33c5f0",
    ),
    # t = 200 lies inside section5's K_U = 4 burst on [100, 300]
    "rhs_section5_switched_full": (
        _rhs_grid("section5", dynamics.SWITCHED_FULL, 200.0),
        "0d44759ae1109d0e96203cffe0d6ddf986aec03b5334ac72b46b8d8f89be8a14",
    ),
}


@pytest.mark.parametrize("name", sorted(MODE_GOLDEN))
def test_golden_modes(name, ref_cfg, section5_cfg, competitive_cfg):
    run, digest = MODE_GOLDEN[name]
    assert run({"ref": ref_cfg, "section5": section5_cfg, "competitive": competitive_cfg}) == digest
