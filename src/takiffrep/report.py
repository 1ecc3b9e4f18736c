"""Deterministic report assembly and serialization for the CLI.

Reports are plain dicts with a fixed shape:

    {"schema": "1", "suite": ..., "config": {...}, "cases": [...],
     "aggregate": "pass" | "fail"}

Rationals are serialized as "num/den" strings (config input also accepts
plain integers), polynomials and windows as their canonical text forms.
Config keys are read through one ``Config``, which records each key read.
Reports contain no timestamps; wall-clock information goes to stderr so
identical (config, seed) runs emit byte-identical documents.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .poly import PolyHH, format_rational
from .weightmod import Window


def jsonable(x):
    """Recursively convert report values to JSON-safe primitives."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, PolyHH):
        return x.to_text()
    if isinstance(x, Window):
        return x.as_text()
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        raise TypeError("floats are out of contract in reports")
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}: {x!r}")


def make_report(suite: str, config: dict, cases: List[dict],
                aggregate_pass: bool) -> dict:
    return {
        "schema": "1",
        "suite": suite,
        "config": jsonable(config),
        "cases": jsonable(cases),
        "aggregate": "pass" if aggregate_pass else "fail",
    }


def emit(report: dict, fmt: str = "json",
         csv_columns: Optional[List[str]] = None) -> str:
    """Render a report as a JSON document or a CSV table of its cases."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        cases = report["cases"]
        if csv_columns is None:
            csv_columns = sorted({k for case in cases for k in case})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_columns)
        for case in cases:
            writer.writerow([_csv_cell(case.get(col, "")) for col in csv_columns])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (list, tuple)):
        return ";".join(_csv_cell(v) for v in x)
    if isinstance(x, dict):
        return ";".join(f"{k}={_csv_cell(v)}" for k, v in x.items())
    return str(x)


# -- config files --------------------------------------------------------------

def load_config(path: str) -> Dict[str, str]:
    """Read a KEY=VALUE config file; '#' starts a comment, blanks skipped.
    A key set twice is refused, naming both lines."""
    out: Dict[str, str] = {}
    lines: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ValueError(f"{path}:{lineno}: config key {key!r} "
                                 f"already set on line {lines[key]}")
            out[key], lines[key] = value.strip(), lineno
    return out


def parse_window(text: str) -> Window:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"window must be KMIN:KMAX:SMAX, got {text!r}")
    return Window(int(parts[0]), int(parts[1]), int(parts[2]))


def list_of(parse: Callable[[str], Any]) -> Callable[[str], list]:
    """A parser of comma-separated items, each read by ``parse``; an empty
    item is refused, so '1,,2' never reads as two items."""
    def read(text):
        items = [item.strip() for item in text.split(",")]
        if not all(items):
            raise ValueError("empty entry in a comma-separated list")
        return [parse(item) for item in items]
    return read


def parse_rational_list(text: str) -> tuple:
    """Comma-separated rationals: '0,1,-3/2' -> (0, 1, -3/2), read by
    ``list_of``; a blank text is the empty list."""
    return tuple(list_of(Fraction)(text)) if text.strip() else ()


def parse_int_pair(text: str) -> Tuple[int, int]:
    """Two comma-separated integers: '3,1' -> (3, 1)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return int(parts[0]), int(parts[1])


def parse_bool(text: str) -> bool:
    """'true' or 'false', in any case."""
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


class Config:
    """The dict ``values`` of ``load_config``, read through ``get``, which
    adds each key it reads to ``read``; ``key in values`` reads nothing."""

    def __init__(self, values: Dict[str, str]):
        self.values, self.read = values, set()

    def get(self, key: str, default: Optional[str] = None,
            parse: Callable[[str], Any] = Fraction,
            least: Optional[int] = None) -> Any:
        """Parse the value of ``key`` (``default`` when absent; None when both
        are) with ``parse``.  A parse failure, a zero denominator included,
        or a value below ``least`` (any item of a list or pair) is a
        ValueError that names the key."""
        self.read.add(key)
        text = self.values.get(key, default)
        if text is None:
            return None
        try:
            value = parse(text)
        except ZeroDivisionError:
            raise ValueError(f"config key {key!r}: zero denominator in "
                             f"{text!r}") from None
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: bad value {text!r} "
                             f"({exc})") from None
        items = value if isinstance(value, (list, tuple)) else (value,)
        if least is not None and any(item < least for item in items):
            raise ValueError(f"config key {key!r}: must be at least {least}")
        return value
