"""Schema fuzzer: configs drawn from the key table in ``stablemix.config``.

Every command's config is drawn key by key from its schema, and so are the
nested law, process and matrix objects: each required key, and each
optional key or not.  The values are small, valid and consistent across
keys.  A valid config must exit 0 or 1 without a traceback, give the same
statistics at 1 and 2 workers, and replay bit for bit.  One mutation of a
valid config must exit 2 naming the key it touched: a dropped required
key, an unknown key at any depth, a value of another JSON kind, or a
fractional or negative integer.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix import cli, config, processes
from stablemix.cli import main
from stablemix.verify import MIN_FILTERED_PATHS

# Verdicts keep the paths whose latent atom is in the conditioning event,
# which holds with probability at least 1/2 here: this many paths keep at
# least MIN_FILTERED_PATHS with overwhelming probability.
VERDICT_PATHS = 2 * MIN_FILTERED_PATHS + 500
# check_condition_iii compares lags up to 4, which need checkpoints past it.
CONDITION_LAG = 4

small = st.floats(0.2, 0.8)


def matrix(rows):
    return {"dim": len(rows), "rows": rows}


@st.composite
def triangular(draw, d, diagonal):
    """An upper-triangular d x d matrix with its diagonal drawn from ``diagonal``."""
    sign = st.sampled_from([-1.0, 1.0])
    return [
        [draw(diagonal) * draw(sign) if i == j else (draw(small) if j > i else 0.0)
         for j in range(d)]
        for i in range(d)
    ]


@st.composite
def probabilities(draw, k):
    weights = [draw(st.floats(0.5, 2.0)) for _ in range(k)]
    return [w / sum(weights) for w in weights]


def pick(draw, schema, values, keep=()):
    """The keys of ``schema`` valued from ``values``: every required key,
    each optional key with probability 1/2, and the optional ``keep``."""
    assert set(values) == set(schema.keys), "a schema key has no fuzzer value"
    return {
        key: value for key, value in values.items()
        if key in keep or not isinstance(schema.keys[key], config.Default)
        or draw(st.booleans())
    }


@st.composite
def laws(draw, d, diagnostic=False):
    tags = [tag for tag in config.LAWS if diagnostic or tag != "log-cauchy-ray"]
    tag = draw(st.sampled_from(tags))
    if tag == "normal":
        a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        c = draw(st.floats(-0.4, 0.4))
        values = {"cov": [[a]] if d == 1 else [[a, c], [c, b]]}
    elif tag == "stable":
        m = draw(st.integers(1, 2))
        angles = [draw(st.floats(0.0, 3.1)) for _ in range(m)]
        values = {
            "alpha": draw(st.floats(0.5, 1.95)),
            "atoms": [[1.0] if d == 1 else [math.cos(t), math.sin(t)] for t in angles],
            "weights": [draw(st.floats(0.2, 1.5)) for _ in range(m)],
        }
    elif tag == "empirical":
        rows = draw(st.integers(1, 4))
        values = {"pool": [[draw(st.floats(-2.0, 2.0)) for _ in range(d)]
                           for _ in range(rows)]}
    else:
        values = {"dim": d}
    keep = ("dim",) if d > 1 else ()
    return {"law": tag, **pick(draw, config.LAWS[tag], values, keep)}


@st.composite
def process_objects(draw, d):
    variant = draw(st.sampled_from(list(config.PROCESSES)))
    values = {
        "P": matrix(draw(triangular(d, small))),
        "noise": draw(laws(d)),
    }
    if variant == "explosive-var":
        values = {"A": matrix(draw(triangular(d, st.floats(1.3, 2.5)))),
                  "noise": values["noise"]}
    elif variant == "random-scaled":
        k = draw(st.integers(1, 3))
        lam = [draw(st.floats(0.5, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
               for _ in range(k)]
        probs = draw(probabilities(k))
        chosen = [i for i in range(k) if draw(st.booleans())]
        if sum(probs[i] for i in chosen) < 0.5:
            chosen = range(k)
        values.update(
            lam_values=lam, lam_probs=probs,
            event_values=[lam[i] for i in chosen],
            perturbation=draw(st.floats(0.0, 1.0)),
        )
    elif variant == "discrete-factor":
        k = draw(st.integers(1, 2))
        values.update(
            factors=[matrix(draw(triangular(d, st.floats(0.5, 2.0))))
                     for _ in range(k)],
            factor_probs=draw(probabilities(k)),
        )
    return {"variant": variant, **pick(draw, config.PROCESSES[variant], values)}


def checkpoint_lists(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=3, unique=True)


@st.composite
def configs(draw, command):
    """A small valid config for ``command``."""
    d = draw(st.integers(1, 2))
    verdict = command.startswith("verify")
    values = {
        "schema_version": 1,
        "seed": draw(st.integers(0, 2**32)),
        "workers": draw(st.integers(1, 2)),
    }
    ecf_check = {
        "delta": draw(st.floats(1e-3, 0.2)), "factor": draw(st.floats(1.0, 4.0)),
    }
    keep = ()
    if command in ("sample-law", "series"):
        values.update(law=draw(laws(d)), count=draw(st.integers(50, 400)), **ecf_check)
        if command == "series":
            values.update(P=matrix(draw(triangular(d, small))),
                          tol=draw(st.floats(1e-6, 1e-2)), r=draw(st.integers(0, 10)))
            keep = (draw(st.sampled_from(["tol", "r"])),)
    elif command == "lemma":
        law = draw(laws(d, diagnostic=True))
        ray = law["law"] == "log-cauchy-ray"
        values.update(
            P=matrix(draw(triangular(d, small))), law=law,
            J=draw(st.integers(1, 12)), n_paths=draw(st.integers(50, 300)),
            allow_diagnostic=ray or draw(st.booleans()),
        )
        keep = ("allow_diagnostic",) if ray else ()
    else:
        values.update(
            process=draw(process_objects(d)),
            checkpoints=draw(checkpoint_lists(
                CONDITION_LAG + 1 if command == "conditions" else 1, 8
            )),
            n_paths=VERDICT_PATHS if verdict else draw(st.integers(50, 400)),
        )
        if command == "simulate":
            values["trajectories"] = draw(st.integers(0, 3))
        elif command != "conditions":
            values.update(r=draw(st.integers(0, 8)), **ecf_check,
                          family=draw(st.sampled_from(["default", "omega"])))
            if command == "verify-mixing":
                values["statistic_of"] = draw(st.sampled_from(["bu", "qu"]))
    cfg = pick(draw, config.COMMANDS[command], values, keep)
    if command == "series":
        cfg.pop({"tol": "r", "r": "tol"}[keep[0]], None)
    return cfg


def run(argv, cfg=None):
    """Exit code and stderr of ``main(argv)``, with ``cfg`` written to the
    config path that follows ``--config``."""
    if cfg is not None:
        path = argv[argv.index("--config") + 1]
        with open(path, "w") as fh:
            json.dump(cfg, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def statistics(*outdir):
    with open(os.path.join(*outdir, "report.json")) as fh:
        return json.load(fh)["statistics"]


@pytest.mark.parametrize("command", list(config.COMMANDS))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_valid_configs_run_and_replay(command, data):
    cfg = data.draw(configs(command))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cfg.json")
        codes = []
        for workers in ("1", "2"):
            cli._HELD.clear()  # each worker count simulates its own ensemble
            out = os.path.join(work, f"w{workers}")
            argv = [command, "--config", path, "--out", out, "--workers", workers]
            code, err = run(argv, cfg)
            assert code in (0, 1), err
            codes.append(code)
        assert codes[0] == codes[1]
        assert statistics(work, "w1") == statistics(work, "w2")
        code, err = run(["replay", os.path.join(work, "w1", "report.json"),
                         "--out", os.path.join(work, "replay")])
        assert code == 0, err


# Nested objects by the key that holds them: (schema, tag key).
NESTED = {
    "law": (config.LAWS, "law"),
    "noise": (config.LAWS, "law"),
    "process": (config.PROCESSES, "variant"),
    "P": (config.MATRIX, None),
    "A": (config.MATRIX, None),
}
INTEGER = (
    config.POSITIVE_INT, config.NONNEGATIVE_INT, config.SEED, processes.as_checkpoints
)


def sites(node, schema, tag=None, path=()):
    """``(path, key, spec)`` of every key of ``node`` and of the objects
    nested in it; a tag key has the spec None."""
    if tag is not None:
        yield path, tag, None
        schema = schema[node[tag]]
    for key, spec in schema.keys.items():
        if key not in node:
            continue
        yield path, key, spec
        if key == "factors":
            for i, item in enumerate(node[key]):
                yield from sites(item, config.MATRIX, None, path + (key, i))
        elif key in NESTED:
            yield from sites(node[key], *NESTED[key], path + (key,))


def converter(spec):
    return spec.convert if isinstance(spec, config.Default) else spec


def kind(value) -> str:
    for name, types in (("bool", bool), ("number", (int, float)), ("string", str),
                        ("list", list), ("object", dict)):
        if isinstance(value, types):
            return name
    raise AssertionError(value)


SAMPLES = {"number": 7, "bool": True, "string": "x", "list": [1], "object": {"a": 1}}


@pytest.mark.parametrize("command", list(config.COMMANDS))
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutations_exit_2_naming_the_key(command, data):
    cfg = data.draw(configs(command))
    found = list(sites(cfg, config.COMMANDS[command]))
    mutation = data.draw(st.sampled_from(
        ["drop", "unknown", "swap", "fraction", "negative"]
    ))
    if mutation == "drop":
        found = [s for s in found if not isinstance(s[2], config.Default)]
    elif mutation in ("fraction", "negative"):
        found = [s for s in found if converter(s[2]) in INTEGER]
    path, key, _spec = data.draw(st.sampled_from(found))
    bad = copy.deepcopy(cfg)
    node = bad
    for step in path:
        node = node[step]
    if mutation == "drop":
        del node[key]
        expected = [f"requires key {key!r}"]
    elif mutation == "unknown":
        node["zz_unknown"] = 1
        expected = ["unknown keys for", "zz_unknown"]
    elif mutation == "swap":
        # A list of numbers may stand for one number, never the reverse.
        was = kind(node[key])
        others = [k for k in SAMPLES
                  if k != was and not (was == "list" and k == "number")]
        node[key] = SAMPLES[data.draw(st.sampled_from(others))]
        expected = [repr(key)]
    else:
        holder, at = (node[key], 0) if isinstance(node[key], list) else (node, key)
        holder[at] = holder[at] + 0.5 if mutation == "fraction" else -(holder[at] + 1)
        expected = [repr(key), "malformed"]
    with tempfile.TemporaryDirectory() as work:
        path, out = os.path.join(work, "cfg.json"), os.path.join(work, "out")
        code, err = run([command, "--config", path, "--out", out], bad)
        assert code == 2 and not os.path.exists(out), err
    assert all(text in err for text in expected), err
