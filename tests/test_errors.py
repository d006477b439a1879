import pickle

import pytest

from gemxpm import errors
from gemxpm.errors import (ConfigError, GemXpmError, LeakageError,
                           StabilityError)

# Constructor arguments for the subclasses whose __init__ is not
# Exception's own.
ARGS = {ConfigError: ("gate.t_gate", "must be positive"),
        StabilityError: (0.1, 0.01),
        LeakageError: ("leaked", {"max": 0.5})}
SUBCLASSES = [cls for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, GemXpmError)]


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda c: c.__name__)
def test_error_survives_pickle(cls):
    # a sweep worker's error is pickled back to the parent process
    exc = cls(*ARGS.get(cls, ("went wrong",)))
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is cls
    assert str(again) == str(exc)
    assert vars(again) == vars(exc)


def test_messages_unchanged():
    assert str(ConfigError("gate", "bad")) == "config error at 'gate': bad"
    assert str(StabilityError(0.1, 0.01)) == (
        "time step dt=1.000e-01 exceeds the stability limit; "
        "required dt <= 1.000e-02")
