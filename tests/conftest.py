import pytest

from rampsched import transform
from rampsched.envelope import derive_envelope, fit_demand_pwa
from rampsched.process import Bounds, ProcessParams
from rampsched.scheduler import solve_ramp
from rampsched.transform import fit_operating_strategy


@pytest.fixture(autouse=True)
def no_kept_point():
    """Every test starts with no point kept by the scalar backtransform, so
    that no test reads a point that another test solved."""
    transform._last_point = transform._NO_POINT


@pytest.fixture(scope="session")
def params():
    return ProcessParams()


@pytest.fixture(scope="session")
def bounds():
    return Bounds()


@pytest.fixture(scope="session")
def strategy_fit(params, bounds):
    return fit_operating_strategy(params, bounds)


@pytest.fixture(scope="session")
def strategy(strategy_fit):
    return strategy_fit[0]


@pytest.fixture(scope="session")
def envelope(strategy, params, bounds):
    return derive_envelope(strategy, params, bounds)


@pytest.fixture(scope="session")
def demand_model(strategy, params, bounds, envelope):
    return fit_demand_pwa(strategy, params, bounds, envelope)


@pytest.fixture(scope="session")
def up_ramp(envelope):
    """The default as-fast-as-possible ramp up."""
    return solve_ramp("up", envelope)


@pytest.fixture(scope="session")
def down_ramp(envelope):
    """The default as-fast-as-possible ramp down."""
    return solve_ramp("down", envelope)
