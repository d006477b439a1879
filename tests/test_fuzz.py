"""Bounded fuzz of the config schema through the CLI entry point.

Each example is a plausible storage, xpm-free or xpm-double config, its
ensemble drawn from the keys its kind reads and a grid's length ``L``
from [0.5, 2]; half of them are left as drawn and half get up to three
random edits: a value replaced by anything YAML can hold, a key deleted,
an unknown key added (at the top level, sometimes a section another kind
reads), a top-level section only other kinds read added, or an ensemble
key the kind does not read added (``L`` among them: it is a grid key).
A storage flip may lie at or past t_max and an xpm-double hold touch
t = 0 or t_max, and a schedule then runs past t_max (or starts before
t = 0).  Sweep examples wrap such a config and sweep one of its numeric
leaves over one to four values.  Every config must either run (exit 0)
or be refused with exit 2 (config) or 3 (numerical/I/O); no exception
may escape ``main``.  A config whose ensemble sets a key its kind does
not read must exit 2, and at least a third of a fixed seeded sample of
independent draws must run.  Grids stay at nz, nt <= 32, so every run
is small; an xpm-double grid adds the time samples its hold's quadrature
needs (``HOLD_SAMPLES`` over the hold), without which none could run.

Gate and tomography configs, and sweeps over them, are edited the same
way.  Two hundred of them are parsed: ``parse_config`` must return or
raise ConfigError, and a sweep parses all its points, so each refusal of
a sweep names a key under ``sweep`` or ``base``.  Sixty of them also run
end to end under the same exit-code rule; a gate run builds its
propagator one small block of the Liouvillian at a time, cheap enough
for a fuzz.  Since random edits leave few of those configs runnable, a
second sixty are drawn from the valid domain only (times in [0.5, 20],
2 to 40 samples, gamma in [0, 2], the primed drive on or off, the stored
coupling on or off, and sweeps over ``gate.t_gate``): each must exit 0
or 3, and at least half must run.
"""

import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from random import Random

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gemxpm import EnsembleParams
from gemxpm.cli import main
from gemxpm.config import SECTIONS, parse_config
from gemxpm.errors import ConfigError
from gemxpm.xpm import HOLD_SAMPLES

# Values of any type the YAML loader can produce, including NaN, inf,
# huge integers and wrong types.
WILD = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                 st.none(), st.text(max_size=3),
                 st.lists(st.floats(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=1))
# Grid sizes are fuzzed in type and sign but never above 32.
SMALL = st.one_of(st.integers(-2, 32), st.floats(-2.0, 32.0), st.booleans(),
                  st.none(), st.text(max_size=3))
# Every top-level section some experiment kind reads.
SECTION_NAMES = sorted({key for keys in SECTIONS.values() for key in keys})


# The ensemble keys each kind reads: a storage signal is detuned by
# delta3, a stored pair's by delta4, and the closed-form xpm-free phase
# reads gamma and delta3 alone.
READ = {
    "storage": ("gamma", "gamma0", "coupling_density", "Delta", "delta3",
                "OmegaC"),
    "xpm-double": ("gamma", "gamma0", "coupling_density", "Delta",
                   "DeltaPrime", "delta4", "OmegaC", "OmegaCPrime"),
    "xpm-free": ("gamma", "delta3"),
}
# coupling_density spans the products of the g and calN ranges it replaced.
ENSEMBLE_VALUES = {
    "gamma": st.floats(0.5, 2.0), "gamma0": st.floats(0.0, 0.5),
    "coupling_density": st.floats(0.5, 200.0),
    "Delta": st.floats(10.0, 60.0),
    "DeltaPrime": st.floats(10.0, 160.0), "delta3": st.floats(10.0, 400.0),
    "delta4": st.floats(-40.0, 40.0), "OmegaC": st.floats(1.0, 10.0),
    "OmegaCPrime": st.floats(1.0, 10.0)}
# Per kind, the EnsembleParams fields it does not read, the two keys
# coupling_density replaced and the cell length, a grid key.
NOT_READ = {kind: sorted({f.name for f in fields(EnsembleParams)}
                         - set(keys)) + ["L", "calN", "g"]
            for kind, keys in READ.items()}


def ensemble(kind):
    return st.fixed_dictionaries({}, optional={
        key: ENSEMBLE_VALUES[key] for key in READ[kind]
        if key in ENSEMBLE_VALUES})


def sets_unread_key(cfg):
    """Whether a config's ensemble sets a key its kind does not read."""
    kind, ens = cfg.get("experiment"), cfg.get("ensemble")
    # an edit may leave the kind unhashable, a list or a mapping
    return (isinstance(kind, str) and kind in READ and isinstance(ens, dict)
            and bool(set(ens) - set(READ[kind])))


def pulse(draw, lo, hi):
    """A pulse whose center + 2 * duration lies in [lo, hi]."""
    center = draw(st.floats(lo, lo + 0.5 * (hi - lo)))
    return {"peak_amplitude": draw(st.floats(0.0, 2.0)),
            "center_time": center,
            "duration": draw(st.floats(0.01, 0.5)) * (hi - center)}


def grid(draw, t_max):
    return {"nz": draw(st.integers(2, 32)), "nt": draw(st.integers(2, 32)),
            "t_max": t_max, "L": draw(st.floats(0.5, 2.0))}


@st.composite
def storage(draw):
    # the flip may lie at or past t_max, and the schedule run past it
    t_max = draw(st.floats(0.5, 4.0))
    flip = draw(st.floats(0.1, 2.0)) * t_max
    end = max(t_max, flip + 0.1 * t_max)
    eta = draw(st.floats(-4.0, 4.0))
    cfg = {"experiment": "storage", "ensemble": draw(ensemble("storage")),
           "probe": pulse(draw, 0.0, min(flip, t_max)),
           "schedule": [[0.0, flip, eta], [flip, end, -eta]],
           "grid": grid(draw, t_max)}
    if draw(st.booleans()):
        cfg["signal"] = pulse(draw, 0.0, t_max)
        # the signal is detuned by delta3: over the delta4 range too
        cfg["ensemble"]["delta3"] = draw(st.one_of(st.floats(-40.0, 40.0),
                                                   st.floats(10.0, 400.0)))
    return cfg


@st.composite
def xpm_double(draw):
    # write, eta = 0 hold on [tau1, tau2], opposite-sign recall; the hold
    # may touch t = 0 (the schedule then starts before it) or t_max
    t_max = draw(st.floats(0.5, 4.0))
    tau1 = draw(st.floats(0.0, 0.5)) * t_max
    tau2 = draw(st.floats(0.6, 1.0)) * t_max
    start = -0.1 * t_max if tau1 == 0.0 else 0.0
    end = max(t_max, tau2 + 0.1 * t_max)
    eta = draw(st.floats(-4.0, 4.0))
    g = grid(draw, t_max)
    # enough time samples for the hold's quadrature, or none could run
    g["nt"] += math.ceil(HOLD_SAMPLES * t_max / (tau2 - tau1))
    return {"experiment": "xpm-double",
            "ensemble": draw(ensemble("xpm-double")),
            "probe": pulse(draw, start, 0.4 * tau1),
            "signal": pulse(draw, 0.5 * (start + tau1), tau1),
            "schedule": [[start, tau1, eta], [tau1, tau2, 0.0],
                         [tau2, end, -eta]],
            "grid": g}


XPM_FREE = st.fixed_dictionaries({
    "experiment": st.just("xpm-free"), "ensemble": ensemble("xpm-free"),
    "xpm_free": st.fixed_dictionaries({
        "omega_s": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
        "tau": st.floats(0.0, 300.0)})})


def slots(node, out):
    """Every (container, key) of a nested config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            slots(value, out)
    return out


GATE = st.fixed_dictionaries({}, optional={
    "gamma": st.floats(0.0, 2.0), "OmegaC": st.floats(0.0, 40.0),
    "OmegaCPrime": st.floats(0.0, 40.0), "Delta": st.floats(-900.0, 900.0),
    "DeltaPrime": st.floats(-900.0, 900.0), "delta4": st.floats(-40.0, 40.0),
    "g": st.floats(0.0, 1.0), "N": st.floats(0.0, 1.0e8),
    "stored_signal_coupling": st.booleans(), "t_end": st.floats(0.0, 30.0),
    "n_samples": st.integers(0, 300), "t_gate": st.floats(0.0, 30.0)})
INTERVAL = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
TARGETS = st.fixed_dictionaries({}, optional={"phi_mrad": INTERVAL,
                                              "process_fidelity": INTERVAL})


def edited(draw, cfg):
    """``cfg`` after up to three random edits."""
    foreign = [key for key in SECTION_NAMES
               if key not in SECTIONS[cfg["experiment"]]]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "delete", "add", "foreign",
                                     "unread"]))
        if edit == "unread":
            # an ensemble key the kind does not read
            kind = cfg.get("experiment")
            if (isinstance(kind, str) and kind in READ
                    and isinstance(cfg.get("ensemble"), dict)):
                key = draw(st.sampled_from(NOT_READ[kind]))
                cfg["ensemble"][key] = draw(st.floats(0.5, 2.0))
            continue
        if edit == "foreign":
            # a top-level section only other kinds read: an "add" lands
            # there too, but seldom
            cfg[draw(st.sampled_from(foreign))] = draw(WILD)
            continue
        if not cfg:
            break
        # reversed, so that hypothesis's bias towards the first choices
        # lands on leaf values rather than on the experiment key
        node, key = draw(st.sampled_from(slots(cfg, [])[::-1]))
        if edit == "delete":
            del node[key]
            continue
        if edit == "add":
            if not isinstance(node, dict):
                continue
            key = draw(st.sampled_from(SECTION_NAMES) | st.text(max_size=3)
                       if node is cfg else st.text(max_size=3))
        node[key] = draw(SMALL if key in ("nz", "nt") else WILD)
    return cfg


@st.composite
def configs(draw):
    # half of them unedited, so that the floor on how many run rests on
    # plausible configs (test_a_third_of_a_seeded_sample_runs)
    cfg = draw(st.one_of(storage(), xpm_double(), XPM_FREE))
    return edited(draw, cfg) if draw(st.booleans()) else cfg


@st.composite
def gate_configs(draw):
    cfg = {"experiment": draw(st.sampled_from(["gate", "tomography"])),
           "gate": draw(GATE)}
    if draw(st.booleans()):
        cfg["targets"] = draw(TARGETS)
    if draw(st.booleans()):
        cfg["units"] = {"system": "lab", "gamma": draw(st.floats(0.5, 2.0))}
    return edited(draw, cfg)


GATE_TIME = st.floats(0.5, 20.0)


@st.composite
def valid_gate_configs(draw):
    """A gate trace, a tomography run or a ``gate.t_gate`` sweep of one,
    every value inside the domain ``parse_config`` accepts."""
    gate = {"gamma": draw(st.floats(0.0, 2.0)),
            "OmegaCPrime": draw(st.sampled_from([0.0, 20.0])),
            "stored_signal_coupling": draw(st.booleans())}
    kind = draw(st.sampled_from(["gate", "tomography", "sweep"]))
    if kind == "gate":
        gate.update(t_end=draw(GATE_TIME), n_samples=draw(st.integers(2, 40)))
        return {"experiment": "gate", "gate": gate}
    tomo = {"experiment": "tomography", "gate": {**gate,
                                                 "t_gate": draw(GATE_TIME)}}
    if kind == "tomography":
        return tomo
    return {"experiment": "sweep",
            "sweep": {"path": "gate.t_gate",
                      "values": draw(st.lists(GATE_TIME, min_size=1,
                                              max_size=4))},
            "base": tomo}


def numeric_leaves(node, prefix=""):
    """Dot-paths of the numbers reachable through mappings only."""
    out = []
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out += numeric_leaves(value, f"{path}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(path)
    return out


@st.composite
def sweeps(draw, bases=configs()):
    base = draw(bases)
    leaves = numeric_leaves(base) if isinstance(base, dict) else []
    path = draw(st.sampled_from(leaves)) if leaves else "probe.peak_amplitude"
    # grid sizes stay small here too
    value = (st.one_of(st.integers(-2, 32), st.floats(-2.0, 32.0))
             if path.split(".")[-1] in ("nz", "nt") else st.floats())
    return {"experiment": "sweep",
            "sweep": {"path": path,
                      "values": draw(st.lists(value, min_size=1,
                                              max_size=4))},
            "base": base}


def seeded_draws(strategy, seeds):
    """One draw of ``strategy`` per seed, from hypothesis's own random
    choices under random.Random(seed): independent draws, which
    hypothesis neither shrinks nor steers towards simple or novel examples
    as its search does.  The two classes it takes are hypothesis
    internals, imported here so that a release that moves them fails the
    one test that draws so."""
    from hypothesis.control import BuildContext
    from hypothesis.internal.conjecture.data import ConjectureData
    for seed in seeds:
        data = ConjectureData(random=Random(seed))
        with BuildContext(data, wrapped_test=None):
            yield data.draw(strategy)


def run_main(cfg):
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "cfg.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh)
        return main(["simulate", path, "--out", os.path.join(td, "out")])


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_runs_or_is_refused(cfg):
    code = run_main(cfg)
    assert code in (0, 2, 3)
    if sets_unread_key(cfg):
        assert code == 2, cfg


def test_a_third_of_a_seeded_sample_runs():
    # The examples hypothesis's search picks are not independent draws:
    # under other test names its 150 ran anywhere from 46 to 90 (when
    # every config was edited up to three times).  So the floor is on
    # independent draws, seeds 0-149, of which 90 run.  Of 2000 other
    # draws, seeds 1000-2999, 1189 ran (0.594; unedited configs 0.92,
    # edited ones 0.04): over 150 the count has mean 89.2 and standard
    # deviation 6.0, so the floor of a third (50) lies 6.5 of them below
    # the mean, and would lie 3 below a rate of 0.46.
    codes = []
    for cfg in seeded_draws(configs(), range(150)):
        codes.append(run_main(cfg))
        assert codes[-1] in (0, 2, 3), cfg
        if sets_unread_key(cfg):
            assert codes[-1] == 2, cfg
    assert 3 * codes.count(0) >= len(codes), codes


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweeps())
def test_every_sweep_runs_or_is_refused(cfg):
    try:
        parse_config(cfg)
    except ConfigError as exc:
        assert exc.path.startswith(("sweep", "base")), str(exc)
    assert run_main(cfg) in (0, 2, 3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(gate_configs(), sweeps(gate_configs())))
def test_every_gate_config_parses_or_is_refused(cfg):
    try:
        parse_config(cfg)
    except ConfigError as exc:
        if cfg.get("experiment") == "sweep":
            assert exc.path.startswith(("sweep", "base")), str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(gate_configs(), sweeps(gate_configs())))
def test_every_gate_config_runs_or_is_refused(cfg):
    assert run_main(cfg) in (0, 2, 3)


def test_valid_gate_configs_run():
    codes = []

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid_gate_configs())
    def run(cfg):
        codes.append(run_main(cfg))
        assert codes[-1] in (0, 3), cfg

    run()
    assert 2 * codes.count(0) >= len(codes), codes


def test_failing_example_reported_as_a_failure(pytester):
    # a failing example makes hypothesis import libcst to write a patch;
    # under this suite's warning filters that import must not abort the
    # session, so the failure is reported and the next file still runs
    pytester.makepyfile(test_a_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """, test_b_runs="""
        def test_runs():
            pass
    """)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = pytester.runpytest_subprocess(
        "-c", str(pyproject), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", str(pytester.path))
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
