"""Text rendering of dump snapshots and Bloch-sphere coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadFormat, WrongArity
from .simulator import DumpData

SQRT_DENOM_LIMIT = 1 << 20  # covers uniform superpositions up to 20 qubits
SQRT_NUMER_LIMIT = 32


@dataclass(frozen=True)
class FormatSpec:
    """Grouping of a snapshot's qubits into rendered kets.

    Each group is ``(base, length)`` with base ``"b"`` (binary, zero padded)
    or ``"i"`` (unsigned decimal).  ``groups=None`` means a single binary
    group spanning all qubits.
    """

    groups: tuple[tuple[str, int], ...] | None = None


def parse_format(spec: str) -> FormatSpec:
    """Parse a grouping such as ``"i1:i1"`` or ``"b2:i3"``; empty = default."""
    if spec == "":
        return FormatSpec(None)
    groups: list[tuple[str, int]] = []
    for token in spec.split(":"):
        if len(token) < 2 or token[0] not in ("b", "i") or not token[1:].isdigit():
            raise BadFormat(f"bad format group {token!r}")
        length = int(token[1:])
        if length < 1:
            raise BadFormat(f"group length must be positive: {token!r}")
        groups.append((token[0], length))
    return FormatSpec(tuple(groups))


def recognize_sqrt_fraction(amplitude: complex) -> tuple[int, int, int] | None:
    """Match a real amplitude against a/√b and return (sign, a, b), or None.

    Fires when the amplitude is finite, real within 1e-9, and |amplitude| is
    within 1e-9 of a/√b for 1 <= a <= 32, 1 <= b <= 2^20 with a² and b
    coprime; the smallest such b wins.  The search tries a in ascending order,
    and b ascending near (a/|amplitude|)², and returns at the first match,
    which is the one with the smallest b.  A match at a = 1 costs a few
    microseconds; a value that matches nothing still tries all 32 numerators.
    """
    amplitude = complex(amplitude)
    if not abs(amplitude.imag) <= 1e-9 or not math.isfinite(amplitude.real):  # NaN fails too
        return None
    value = abs(amplitude.real)
    if value < 0.5 / math.sqrt(SQRT_DENOM_LIMIT):
        return None
    sign = -1 if amplitude.real < 0 else 1
    # The first match has the smallest b.  Two matches (a, b) and (a', b')
    # with a < a' lie within 2e-9 of each other.  If b' <= b, then
    # a'/√b' >= (a+1)/√b >= a/√b + 2^-10, since b <= 2^20; so b' > b.
    for a in range(1, SQRT_NUMER_LIMIT + 1):
        exact = (a / value) ** 2
        if exact > SQRT_DENOM_LIMIT + 2:
            continue
        low = max(1, math.floor(exact) - 2)
        high = min(SQRT_DENOM_LIMIT, math.ceil(exact) + 2)
        for b in range(low, high + 1):
            if abs(value - a / math.sqrt(b)) < 1e-9 and math.gcd(a * a, b) == 1:
                return sign, a, b
    return None


def show(data: DumpData, spec: FormatSpec | str = "") -> str:
    """Render a snapshot, one block per basis state in ascending order.

    Line 1 holds the grouped kets and the probability with two decimals;
    line 2 the amplitude with six decimals and, for recognized real values,
    a tab-separated ``≅ a/√b`` annotation.
    """
    if isinstance(spec, str):
        spec = parse_format(spec)
    total = len(data.qubits)
    groups = spec.groups if spec.groups is not None else (("b", total),)
    if sum(length for _, length in groups) != total:
        raise BadFormat(
            f"format covers {sum(l for _, l in groups)} qubits, snapshot has {total}"
        )
    lines: list[str] = []
    width = f"0{total}b"
    # one ket of every qubit needs no split; a hand-made snapshot of no
    # qubits keeps the split's empty ket, where format would give "0"
    whole = len(groups) == 1 and total > 0
    for basis, amp in data.basis_states:
        if whole:
            kets = f"|{basis:{width}}⟩" if groups[0][0] == "b" else f"|{basis}⟩"
        else:
            bits = format(basis, width)
            chunks = []
            pos = 0
            for base, length in groups:
                chunk = bits[pos : pos + length]
                pos += length
                chunks.append(f"|{chunk}⟩" if base == "b" else f"|{int(chunk, 2)}⟩")
            kets = "".join(chunks)
        probability = abs(amp) ** 2 * 100.0
        lines.append(f"{kets} ({probability:.2f}%)")
        real = amp.real + 0.0  # avoid "-0.000000"
        text = f" {real:.6f}"
        imag = amp.imag
        if abs(imag) > 1e-9:
            text += f" + {imag:.6f}i" if imag >= 0 else f" - {-imag:.6f}i"
        match = recognize_sqrt_fraction(amp)
        if match is not None:
            sign, a, b = match
            text += f"\t≅\t{'-' if sign < 0 else ''}{a}/√{b}"
        lines.append(text)
    return "\n".join(lines)


@dataclass(frozen=True)
class BlochCoords:
    """Unit-sphere coordinates of a pure single-qubit state."""

    x: float
    y: float
    z: float


def bloch_coords(data: DumpData) -> BlochCoords:
    """Sphere coordinates of a one-qubit snapshot; global phase drops out.

    For amplitudes (α, β): x = 2·Re(ᾱβ), y = 2·Im(ᾱβ), z = |α|² - |β|².
    """
    if len(data.qubits) != 1:
        raise WrongArity(f"snapshot covers {len(data.qubits)} qubits, need exactly 1")
    amplitudes = dict(data.basis_states)
    alpha = complex(amplitudes.get(0, 0.0))
    beta = complex(amplitudes.get(1, 0.0))
    cross = alpha.conjugate() * beta
    return BlochCoords(2.0 * cross.real, 2.0 * cross.imag, abs(alpha) ** 2 - abs(beta) ** 2)


def bloch_svg(coords: BlochCoords, size: int = 360) -> str:
    """Static SVG of the sphere with the state vector drawn in."""
    half = size / 2.0
    radius = half * 0.82
    # orthographic-ish projection: screen_x <- x - y/2, screen_y <- -z + y/4
    px = half + radius * (coords.x - 0.5 * coords.y)
    py = half - radius * (coords.z - 0.25 * coords.y)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">
  <circle cx="{half}" cy="{half}" r="{radius}" fill="none" stroke="#888" stroke-width="1.5"/>
  <ellipse cx="{half}" cy="{half}" rx="{radius}" ry="{radius * 0.3}" fill="none" stroke="#bbb" stroke-width="1" stroke-dasharray="4 3"/>
  <line x1="{half}" y1="{half - radius}" x2="{half}" y2="{half + radius}" stroke="#ccc" stroke-width="1"/>
  <line x1="{half - radius}" y1="{half}" x2="{half + radius}" y2="{half}" stroke="#ccc" stroke-width="1"/>
  <text x="{half + 4}" y="{half - radius + 12}" font-size="12" fill="#444">|0⟩</text>
  <text x="{half + 4}" y="{half + radius - 4}" font-size="12" fill="#444">|1⟩</text>
  <line x1="{half}" y1="{half}" x2="{px:.2f}" y2="{py:.2f}" stroke="#d33" stroke-width="2.5"/>
  <circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#d33"/>
</svg>
"""
