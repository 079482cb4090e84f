from dataclasses import replace
import math
from pathlib import Path

from hypothesis import settings
import pytest

from accessprice import cli

# one profile for every property test: no per-example deadline (one CLI run
# can take longer than the default 200 ms) and examples drawn from a fixed
# seed, so every Tier-1 run tries the same inputs
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def price_scaled(cfg, e: int):
    """cfg with its price unit 2**e times smaller: beta and alpha's
    coefficients times 2**e, a linear alpha's q_max derived again from the
    scaled coefficients.  f/alpha keeps its bits, so no equilibrium moves."""
    adm = cfg.admission
    return replace(cfg, price=replace(cfg.price, beta=math.ldexp(cfg.price.beta, e)),
                   admission=replace(adm, coefficients=[math.ldexp(c, e) for c in adm.coefficients],
                                     q_max=None if adm.variant == "linear" else adm.q_max))


@pytest.fixture(scope="session")
def ref_cfg():
    return cli.load_config(str(CONFIG_DIR / "ref.json"))


@pytest.fixture(scope="session")
def section5_cfg():
    return cli.load_config(str(CONFIG_DIR / "section5.json"))


@pytest.fixture(scope="session")
def competitive_cfg():
    return cli.load_config(str(CONFIG_DIR / "competitive.json"))


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
