"""Corrupted input files: every loader returns or raises GraphError.

Valid graph, partition, shortcut and certificate files are written by the
package's own dump functions and then corrupted a few characters (or, for
certificates, a few JSON values) at a time.  A loader may accept the result,
since many edits leave a valid file, but it must never fail with any other
exception: the CLI turns GraphError into exit code 2 and a message, and
anything else into a traceback.  Examples are derandomised.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from treeshort.engine import (
    EngineConfig,
    certificate_from_json_dict,
    certificate_to_json_dict,
    construct_full,
    dumps_shortcut,
    loads_shortcut,
)
from treeshort.generators import assign_weights, gen_grid, gen_parts_random, gen_wheel
from treeshort.graph import (
    GraphError,
    bfs_tree,
    dumps_graph,
    dumps_partition,
    loads_graph,
    loads_partition,
)

from conftest import build_fan

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# digits, separators and the tokens the formats use, plus characters that
# int() or str.splitlines() treat specially
PIECES = [
    "0", "1", "7", "9", " ", "\n", ":", "-", "+", "_", "x", "/", ".", "\t",
    "\x0b", "٣", "weighted", "1e3", "",
]


def _instance(seed):
    rng = random.Random(seed)
    if seed % 2:
        g = gen_grid(rng.randint(1, 3), rng.randint(2, 3))
    else:
        g = gen_wheel(rng.randint(4, 7))
    if seed % 3 == 0:
        g = assign_weights(g, seed)
    p = gen_parts_random(g, rng.randint(1, g.n), seed)
    result = construct_full(g, bfs_tree(g, 0), p, EngineConfig(), random.Random(seed))
    return g, p, result.shortcut


@st.composite
def corrupted(draw, text):
    """`text` with one to three characters replaced, inserted or deleted."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        piece = draw(st.sampled_from(PIECES))
        if op == "insert" or not chars:
            chars.insert(at, piece)
        elif op == "replace":
            chars[at % len(chars)] = piece
        else:
            del chars[at % len(chars)]
    return "".join(chars)


@st.composite
def corrupted_files(draw):
    g, p, shortcut = _instance(draw(st.integers(0, 2**16)))
    files = [
        ("graph", dumps_graph(g)),
        ("partition", dumps_partition(p)),
        ("shortcut", dumps_shortcut(shortcut)),
    ]
    kind, text = draw(st.sampled_from(files))
    return kind, draw(corrupted(text)), g.n


def returns_or_graph_error(load, *args):
    try:
        load(*args)
    except GraphError:
        pass


@SETTINGS
@given(corrupted_files())
def test_text_loaders_return_or_raise_graph_error(case):
    kind, text, n = case
    if kind == "graph":
        returns_or_graph_error(loads_graph, text)
    elif kind == "partition":
        returns_or_graph_error(loads_partition, text, n)
    else:
        returns_or_graph_error(loads_shortcut, text)


def _fan_certificate():
    g, parts = build_fan(9, 18, 9)
    result = construct_full(g, bfs_tree(g, 0), parts, EngineConfig(), random.Random(1))
    return certificate_to_json_dict(result.certificates[0])


CERTIFICATE = _fan_certificate()

JSON_VALUES = [None, True, 0, -1, 1.5, "", "x", "1/0", "2/3", [], [1, "a"], {}, {"a": 1}]


def _json_paths(obj, path=()):
    """Every (container path, key) under obj, in a fixed order."""
    if isinstance(obj, dict):
        keys = sorted(obj)
    else:
        keys = range(len(obj)) if isinstance(obj, list) else ()
    for key in keys:
        yield path, key
        yield from _json_paths(obj[key], path + (key,))


CERT_PATHS = list(_json_paths(CERTIFICATE))


def _child(obj, key):
    """obj[key] if obj is a container holding key, else None."""
    if isinstance(obj, dict) and key in obj:
        return obj[key]
    if isinstance(obj, list) and isinstance(key, int) and key < len(obj):
        return obj[key]
    return None


@SETTINGS
@given(
    st.lists(
        st.tuples(st.sampled_from(CERT_PATHS), st.sampled_from(JSON_VALUES + ["delete"])),
        min_size=1,
        max_size=3,
    )
)
def test_certificate_loader_on_replaced_or_deleted_values(edits):
    data = json.loads(json.dumps(CERTIFICATE))
    for (path, key), value in edits:
        obj = data
        for step in path:
            obj = _child(obj, step)
        if _child(obj, key) is None:
            continue  # an earlier edit removed or replaced this spot
        if value == "delete":
            del obj[key]
        else:
            obj[key] = value
    returns_or_graph_error(certificate_from_json_dict, data)


@SETTINGS
@given(corrupted(json.dumps(CERTIFICATE)))
def test_certificate_loader_on_corrupted_json_text(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return  # not JSON at all: the JSON parser's error, not the loader's
    returns_or_graph_error(certificate_from_json_dict, data)
