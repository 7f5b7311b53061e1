"""Validation reports and JSON conventions shared by every module.

Complex numbers serialize as two-element ``[re, im]`` lists throughout the
package; reports are plain dataclasses that render to deterministic JSON
(sorted keys, stable float repr) so repeated runs diff cleanly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named check: pass/fail plus the worst residual."""

    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    """A list of named checks against one subject.

    Failures are data, not exceptions: callers inspect ``passed`` or the
    individual checks.
    """

    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, residual: float = 0.0, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(passed), float(residual), detail))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.subject}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = f"  {c.detail}" if c.detail else ""
            lines.append(f"  {mark} {c.name} (residual {c.residual:.3g}){extra}")
        return "\n".join(lines)


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def complex_array_to_pairs(a: np.ndarray):
    """Nested [re, im] lists mirroring the array's shape."""
    a = np.asarray(a)
    if a.ndim == 0:
        return complex_to_pair(complex(a))
    return [complex_array_to_pairs(sub) for sub in a]


def pairs_to_complex_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(complex)


def _numpy_value(obj):
    """json's default: NumPy scalars and arrays as Python values (np.float64
    is a float, and json encodes it without asking)."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# json's bare tokens for non-finite floats, which are not valid JSON, and the
# strings a report writes instead: each float's repr
_NON_FINITE_REPR = {"NaN": '"nan"', "Infinity": '"inf"', "-Infinity": '"-inf"'}


_STEP = np.zeros(256, np.int64)  # level change at each byte: brackets open and close
_STEP[list(b"[{")], _STEP[list(b"]}")] = 1, -1
_STRUCTURAL = (_STEP != 0) | (np.arange(256) == ord(","))


def _string_quotes(compact: str) -> tuple[np.ndarray, np.ndarray]:
    """Compact ASCII JSON text as bytes with escaped backslashes masked, and
    the positions of the quotes that open and close its strings."""
    # a quote inside a string follows an odd run of backslashes; with every
    # escaped backslash masked, it follows exactly one ("\x01" never occurs:
    # ensure_ascii writes control characters as \u escapes)
    probe = np.frombuffer(compact.replace("\\\\", "\x01\x01").encode("ascii"), np.uint8)
    quotes = np.flatnonzero(probe == ord('"'))
    return probe, quotes[probe[quotes - 1] != ord("\\")]


def _quote_non_finite(compact: str) -> str:
    """Compact JSON text with each bare NaN, Infinity and -Infinity token
    (outside strings) replaced by its float's repr as a string."""
    matches = list(re.finditer(r"NaN|-?Infinity", compact))
    if not matches:
        return compact
    _, quotes = _string_quotes(compact)
    starts = [match.start() for match in matches]
    outside = np.searchsorted(quotes, starts) % 2 == 0  # an even count of quotes before
    pieces, end = [], 0
    for match, bare in zip(matches, outside):
        if bare:
            pieces += [compact[end : match.start()], _NON_FINITE_REPR[match.group()]]
            end = match.end()
    pieces.append(compact[end:])
    return "".join(pieces)


def _indent(compact: str) -> str:
    """Compact JSON text (separators "," and ": ", ASCII) in the layout of
    json.dumps(indent=2): a newline and two spaces per level after each
    opening bracket and comma and before each closing bracket, except in
    an empty container and inside strings.

    json writes that layout only with its pure-Python encoder, which takes
    several times as long as its C encoder, so the C encoder's text is
    re-indented here in whole-array passes.
    """
    raw = np.frombuffer(compact.encode("ascii"), np.uint8)
    probe, quotes = _string_quotes(compact)
    pos = np.flatnonzero(_STRUCTURAL[probe])
    pos = pos[np.searchsorted(quotes, pos) % 2 == 0]  # an even count of quotes before
    step = _STEP[probe[pos]]
    level = np.cumsum(step)  # after each character
    after = (step == 0) | ((step == 1) & (_STEP[np.append(probe, 0)[pos + 1]] != -1))
    before = (step == -1) & (_STEP[probe[pos - 1]] != 1)
    gaps = np.concatenate([pos[after], pos[before] - 1])  # characters a newline follows
    inserted = np.zeros(raw.size, np.int64)
    inserted[gaps] = 1 + 2 * np.concatenate([level[after], level[before]])
    where = np.cumsum(inserted)
    where -= inserted
    where += np.arange(raw.size)  # each character's place in the indented text
    out = np.full(where[-1] + 1, ord(" "), np.uint8)
    out[where] = raw
    out[where[gaps] + 1] = ord("\n")
    return out.tobytes().decode("ascii")


def canonical_json(data) -> str:
    """Deterministic JSON text: sorted keys, stable float repr, newline-terminated.

    The layout of json.dumps(sort_keys=True, indent=2), in which NumPy
    values are written as their Python values and a non-finite float as
    the string of its repr ("nan", "inf", "-inf"), since bare NaN and
    Infinity are not JSON.  json's C encoder writes the compact text, and
    the non-finite tokens and the layout are mended on that text.
    """
    compact = json.dumps(data, sort_keys=True, separators=(",", ": "), default=_numpy_value)
    return _indent(_quote_non_finite(compact)) + "\n"
