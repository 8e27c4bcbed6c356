import pickle

import pytest

from weakinv.errors import BlowupError, ConfigError, IntegrationError


@pytest.mark.parametrize("error", [
    ConfigError("grid.n_steps", "must be ≥ 1"),
    ConfigError(None, "the following arguments are required: command"),
    IntegrationError("non-finite invariant at node 3", step=3),
    IntegrationError("invariant flow ended without a result (exit status -9)", step=None),
    BlowupError("state magnitude 3.815e+12 exceeded cap 1.0e+12 at node 18", step=18,
                magnitude=3.815e12),
], ids=["config", "config-no-field", "integration", "integration-no-step", "blowup"])
def test_errors_survive_pickling(error):
    # a forked flow sends its error back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for attr in ("field", "step", "magnitude"):
        assert getattr(copy, attr, "absent") == getattr(error, attr, "absent")
