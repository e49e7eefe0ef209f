"""Snapshot rendering, the a/√b recognizer, and Bloch coordinates."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qvm
from qvm import BadFormat, WrongArity
from qvm.render import (
    FormatSpec,
    bloch_coords,
    bloch_svg,
    parse_format,
    recognize_sqrt_fraction,
    show,
)
from qvm.simulator import DumpData, StateVector, extract_dump

from oracles import sqrt_fraction_oracle

SQRT1_2 = 1 / math.sqrt(2)


def single_qubit_dump(alpha, beta):
    return extract_dump(StateVector(1, np.array([alpha, beta], dtype=complex)), (0,))


class TestParseFormat:
    def test_two_int_groups(self):
        assert parse_format("i1:i1") == FormatSpec((("i", 1), ("i", 1)))

    def test_empty_means_binary_over_everything(self):
        assert parse_format("") == FormatSpec(None)

    def test_mixed_groups(self):
        assert parse_format("b2:i3") == FormatSpec((("b", 2), ("i", 3)))

    @pytest.mark.parametrize("bad", ["b2:q1", "x1", "i", "i0", "b-1", "i1::i1", ":"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(BadFormat):
            parse_format(bad)

    def test_group_sum_checked_at_render_time(self):
        data = DumpData((0, 1), ((0, 1 + 0j),))
        with pytest.raises(BadFormat):
            show(data, "i1")


class TestRecognizer:
    def test_inverse_sqrt_two(self):
        assert recognize_sqrt_fraction(0.7071067811865476) == (1, 1, 2)

    def test_half_is_one_over_sqrt_four(self):
        assert recognize_sqrt_fraction(0.5) == (1, 1, 4)

    def test_one_is_one_over_sqrt_one(self):
        assert recognize_sqrt_fraction(1.0) == (1, 1, 1)

    def test_complex_amplitude_never_matches(self):
        assert recognize_sqrt_fraction(0.3 + 0.4j) is None

    @pytest.mark.parametrize(
        "amplitude", [math.nan, complex(0.5, math.nan), math.inf, -math.inf, complex(math.inf, 0)]
    )
    def test_non_finite_amplitude_never_matches(self, amplitude):
        assert recognize_sqrt_fraction(amplitude) is None

    def test_negative_real_reports_sign(self):
        assert recognize_sqrt_fraction(-SQRT1_2) == (-1, 1, 2)

    def test_sqrt3_over_2_has_no_coprime_form(self):
        assert recognize_sqrt_fraction(math.sqrt(3) / 2) is None

    def test_smallest_denominator_wins(self):
        # 2/sqrt(8) == 1/sqrt(2)
        assert recognize_sqrt_fraction(2 / math.sqrt(8)) == (1, 1, 2)

    def test_eighteen_qubit_uniform_amplitude_is_exact(self):
        # lattice spacing at b = 2^18 is ~3.7e-9, above the tolerance: unique hit
        assert recognize_sqrt_fraction(1 / math.sqrt(1 << 18)) == (1, 1, 1 << 18)

    def test_twenty_qubit_uniform_amplitude_reports_smallest_b(self):
        # near b = 2^20 neighbouring lattice points sit within 1e-9 of each
        # other; the smallest matching denominator wins
        value = 1 / math.sqrt(1 << 20)
        result = recognize_sqrt_fraction(value)
        assert result is not None and result[0] == 1 and result[1] == 1
        got_b = result[2]
        assert abs(value - 1 / math.sqrt(got_b)) < 1e-9
        smallest = min(
            b
            for b in range((1 << 20) - 8, (1 << 20) + 1)
            if abs(value - 1 / math.sqrt(b)) < 1e-9
        )
        assert got_b == smallest

    @given(st.integers(1, 32), st.integers(1, 1 << 20))
    @settings(max_examples=300)
    def test_fires_on_every_coprime_lattice_point(self, a, b):
        if math.gcd(a * a, b) != 1:
            return  # no canonical form: firing is not required
        value = a / math.sqrt(b)
        result = recognize_sqrt_fraction(value)
        assert result is not None
        sign, got_a, got_b = result
        assert sign == 1
        assert abs(value - got_a / math.sqrt(got_b)) < 1e-9
        assert math.gcd(got_a * got_a, got_b) == 1
        assert got_b <= b  # smallest-b rule

    @given(st.floats(0.001, 1.0))
    @settings(max_examples=300)
    def test_never_fires_far_from_the_lattice(self, value):
        result = recognize_sqrt_fraction(value)
        if result is not None:
            sign, a, b = result
            assert abs(value - a / math.sqrt(b)) < 1e-9

    def test_exhaustive_scan_agrees_on_dense_sublattice(self):
        # independent oracle: full scan of b <= 4096 for each candidate value
        limit = 4096
        for value in [0.5, SQRT1_2, 1 / math.sqrt(3), 0.123456, 3 / math.sqrt(10), 0.999999]:
            hits = [
                (a, b)
                for a in range(1, 33)
                for b in range(1, limit + 1)
                if abs(value - a / math.sqrt(b)) < 1e-9 and math.gcd(a * a, b) == 1
            ]
            expected = min(hits, key=lambda ab: ab[1]) if hits else None
            got = recognize_sqrt_fraction(value)
            if expected is None:
                assert got is None or got[2] > limit
            else:
                assert got == (1, *expected)

    def test_early_return_matches_the_full_search(self):
        # seeded sweep, compared for exact tuple equality with the full search
        rng = np.random.default_rng(20261018)
        count = 6000
        a = rng.integers(1, 41, count)
        b = rng.integers(1, (1 << rng.integers(0, 21, count)) + 6)  # up to 2^20 + 5
        b[: count // 6] = rng.integers((1 << 20) - 64, (1 << 20) + 6, count // 6)
        lattice = a / np.sqrt(b) * rng.choice([-1, 1], count)
        lattice += rng.uniform(-2e-9, 2e-9, count) * rng.integers(0, 2, count)
        imag = rng.uniform(-2e-9, 2e-9, count) * rng.integers(0, 2, count)
        values = [
            *(lattice + 1j * imag),
            *rng.uniform(-40, 40, 5000),
            *rng.uniform(-1, 1, 5000),
            *(10.0 ** rng.uniform(-4, 2, 4000) * rng.choice([-1, 1], 4000)),
            0.0,
            -0.0,
        ]
        for value in values:
            assert recognize_sqrt_fraction(value) == sqrt_fraction_oracle(value), value


class TestShow:
    def bell_dump(self):
        return DumpData((0, 1), ((0, complex(SQRT1_2)), (3, complex(SQRT1_2))))

    def test_bell_block_exact(self):
        expected = (
            "|00⟩ (50.00%)\n"
            " 0.707107\t≅\t1/√2\n"
            "|11⟩ (50.00%)\n"
            " 0.707107\t≅\t1/√2"
        )
        assert show(self.bell_dump()) == expected

    def test_grouped_int_format(self):
        data = DumpData((0, 1), ((1, 1 + 0j),))
        assert show(data, "i1:i1") == "|0⟩|1⟩ (100.00%)\n 1.000000\t≅\t1/√1"

    def test_one_binary_or_decimal_group_of_every_qubit(self):
        data = DumpData((0, 1, 2), tuple((basis, complex(0.5)) for basis in (0, 2, 5, 7)))
        for spec, kets in [("b3", ["000", "010", "101", "111"]), ("i3", ["0", "2", "5", "7"])]:
            assert show(data, spec).split("\n")[::2] == [f"|{ket}⟩ (25.00%)" for ket in kets]

    def test_quarter_probability_states(self):
        data = DumpData(
            (0, 1, 2),
            ((0, complex(SQRT1_2)), (4, 0.5 + 0j), (7, 0.5 + 0j)),
        )
        text = show(data)
        assert "|100⟩ (25.00%)" in text
        assert " 0.500000\t≅\t1/√4" in text

    def test_negative_real_amplitude(self):
        data = single_qubit_dump(SQRT1_2, -SQRT1_2)
        text = show(data)
        assert " -0.707107\t≅\t-1/√2" in text

    def test_complex_amplitude_has_imaginary_term_and_no_annotation(self):
        data = DumpData((0,), ((0, complex(SQRT1_2)), (1, SQRT1_2 * 1j)))
        lines = show(data).split("\n")
        assert lines[3] == " 0.000000 + 0.707107i"

    def test_negative_imaginary_term(self):
        data = DumpData((0,), ((0, complex(SQRT1_2)), (1, -SQRT1_2 * 1j)))
        assert " 0.000000 - 0.707107i" in show(data)

    def test_probabilities_sum_to_one_hundred(self):
        p = qvm.new_process()
        qs = p.alloc(3)
        qvm.qft(qs)
        qvm.rx(0.7, qs[1])
        text = show(p.dump_state(qs).data)
        total = sum(
            float(line.split("(")[1].rstrip("%)"))
            for line in text.split("\n")
            if line.startswith("|")
        )
        assert abs(total - 100.0) <= 0.02

    def test_string_spec_accepted_directly(self):
        assert show(self.bell_dump(), "b1:b1") == show(self.bell_dump(), parse_format("b1:b1"))


class TestBlochCoords:
    def test_plus_state(self):
        coords = bloch_coords(single_qubit_dump(SQRT1_2, SQRT1_2))
        assert abs(coords.x - 1) < 1e-9
        assert abs(coords.y) < 1e-9
        assert abs(coords.z) < 1e-9

    def test_flipped_state(self):
        coords = bloch_coords(single_qubit_dump(0, 1))
        assert (coords.x, coords.y) == (0, 0)
        assert abs(coords.z + 1) < 1e-9

    def test_global_phase_dropped(self):
        reference = bloch_coords(single_qubit_dump(SQRT1_2, SQRT1_2))
        rotated = bloch_coords(single_qubit_dump(1j * SQRT1_2, 1j * SQRT1_2))
        assert math.isclose(reference.x, rotated.x, abs_tol=1e-12)
        assert math.isclose(reference.y, rotated.y, abs_tol=1e-12)
        assert math.isclose(reference.z, rotated.z, abs_tol=1e-12)

    def test_wrong_arity(self):
        data = DumpData((0, 1), ((0, 1 + 0j),))
        with pytest.raises(WrongArity):
            bloch_coords(data)

    @given(st.floats(0, math.pi), st.floats(-math.pi, math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=200)
    def test_unit_norm_and_phase_invariance(self, theta, azimuth, extra):
        alpha = math.cos(theta / 2)
        beta = cmath.exp(1j * azimuth) * math.sin(theta / 2)
        data = DumpData((0,), ((0, alpha + 0j), (1, complex(beta))))
        coords = bloch_coords(data)
        assert abs(coords.x**2 + coords.y**2 + coords.z**2 - 1) < 1e-9

        spun = cmath.exp(1j * extra)
        rotated = bloch_coords(
            DumpData((0,), ((0, alpha * spun), (1, beta * spun)))
        )
        assert abs(coords.x - rotated.x) < 1e-12
        assert abs(coords.y - rotated.y) < 1e-12
        assert abs(coords.z - rotated.z) < 1e-12

    @given(st.floats(0.01, math.pi - 0.01), st.floats(-3, 3))
    @settings(max_examples=200)
    def test_round_trip_reconstruction(self, theta, azimuth):
        alpha = math.cos(theta / 2)
        beta = cmath.exp(1j * azimuth) * math.sin(theta / 2)
        coords = bloch_coords(DumpData((0,), ((0, alpha + 0j), (1, complex(beta)))))
        back_alpha = math.cos(math.acos(max(-1.0, min(1.0, coords.z))) / 2)
        back_beta = cmath.exp(1j * math.atan2(coords.y, coords.x)) * math.sin(
            math.acos(max(-1.0, min(1.0, coords.z))) / 2
        )
        # equality up to global phase
        inner = abs(back_alpha * alpha.conjugate() + back_beta * beta.conjugate())
        assert abs(inner - 1) < 1e-9


def test_bloch_svg_contains_vector():
    svg = bloch_svg(qvm.BlochCoords(1.0, 0.0, 0.0))
    assert svg.startswith("<svg")
    assert "|0⟩" in svg and "line" in svg
