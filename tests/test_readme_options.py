"""The README's estimator and option tables must match the ESTIMATORS table, its list of
generator kinds the generators' parameter schemas, and its Layout table the modules."""

import argparse
import importlib
import json
import re
from dataclasses import MISSING
from functools import reduce
from pathlib import Path

from privest.cli import build_parser
from privest.core import field_schema, typed
from privest.experiments import ESTIMATORS
from privest.generators import GENERATORS

_README = Path(__file__).resolve().parents[1] / "README.md"
_LITERAL = re.compile(r"^`([^`]*)`$")


def _rows(lines):
    """Cells of the body rows of the markdown tables in ``lines``."""
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in lines
        if line.startswith("| `")
    ]


def _sections():
    text = _README.read_text(encoding="utf-8")
    body = text.split("### Estimators and their options", 1)[1].split("\n### ", 1)[0]
    parts = re.split(r"^#### `(\w+)`$", body, flags=re.M)
    summary = _rows(parts[0].splitlines())
    options = {name: _rows(part.splitlines()) for name, part in zip(parts[1::2], parts[2::2])}
    return summary, options


def _names(cell):
    return tuple(re.findall(r"`([^`]*)`", cell))


def test_estimator_table_matches():
    summary, _ = _sections()
    assert {_names(row[0])[0]: row for row in summary}.keys() == ESTIMATORS.keys()
    for row in summary:
        entry = ESTIMATORS[_names(row[0])[0]]
        assert _names(row[1]) == entry.mechanisms
        assert _names(row[2]) == entry.generators
        assert _names(row[3]) == entry.metrics


def test_option_tables_match_the_schema():
    _, options = _sections()
    assert options.keys() == ESTIMATORS.keys()
    for estimator, rows in options.items():
        schema = ESTIMATORS[estimator].options
        assert [_names(row[0])[0] for row in rows] == list(schema), estimator
        for name_cell, kind, default, allowed in rows:
            name = _names(name_cell)[0]
            opt = schema[name]
            assert kind == opt.kind.__name__ + (" or null" if opt.nullable else ""), name
            assert tuple(json.loads(v) for v in _names(allowed)) == opt.allowed, name
            literal = _LITERAL.match(default)
            if callable(opt.default):
                assert literal is None, f"{estimator}.{name}: default depends on the generator"
                continue
            assert literal, f"{estimator}.{name}: constant default must be one JSON literal"
            value = json.loads(literal.group(1))
            if value is not None:
                value = typed(name, value, opt.kind)
            assert value == opt.default, f"{estimator}.{name}"


def test_generator_kinds_match_the_schemas():
    text = _README.read_text(encoding="utf-8")
    listing = text.split("Generator kinds, with each", 1)[1].split("Their ranges", 1)[0]
    kinds = dict(re.findall(r"`(\w+)\(([^)]*)\)`", listing))
    assert kinds.keys() == GENERATORS.keys()
    for kind, params in kinds.items():
        schema = field_schema(GENERATORS[kind])
        written = [param.split("=") for param in params.split(", ")]
        assert [name for name, *_ in written] == list(schema), kind
        for name, *default in written:
            opt = schema[name]
            if default:
                assert opt.kind is float and typed(name, json.loads(default[0]), float) == opt.default
            else:  # a required list of floats
                assert opt.default is MISSING and opt.kind == tuple[float, ...], f"{kind}.{name}"


def test_layout_names_exist():
    """Each name in a Layout row is an attribute path of that row's module, or a command."""
    text = _README.read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    commands = {"privest", *subparsers.choices}
    rows = _rows(layout.splitlines())
    assert rows
    for module_cell, contents in rows:
        module = importlib.import_module(_names(module_cell)[0])
        for span in _names(contents):
            if not re.fullmatch(r"[\w.-]+( [\w.-]+)*", span):
                continue  # a formula or a signature, such as `e^eps` or `level=None`
            for name in span.split():
                if name in commands:
                    continue
                try:
                    reduce(getattr, name.split("."), module)
                except AttributeError:
                    raise AssertionError(f"{module.__name__} has no {name}") from None
