import math
from fractions import Fraction

import pytest

from graphent import (
    CapabilityError,
    CatalogError,
    ExactValue,
    alphabet_constants,
    builtin_family,
    classify,
    exact_value_eval,
    load_catalog,
    load_seed_catalog,
    parse_exact_value,
    save_catalog,
)
from graphent.catalog import ALPHABET_LABELS, PAIR_PHI


class TestBuiltinFamily:
    def test_cycle5(self):
        g = builtin_family("cycle", 5)
        assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_star4(self):
        assert builtin_family("star", 4).edges() == [(0, 1), (0, 2), (0, 3)]

    def test_path(self):
        assert builtin_family("path", 4).edges() == [(0, 1), (1, 2), (2, 3)]

    def test_complete(self):
        assert builtin_family("complete", 4).edge_count() == 6

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            builtin_family("cycle", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            builtin_family("wheel", 5)

    def test_oversized_refused_before_edge_list(self, monkeypatch):
        def refuse(n, edges):
            pytest.fail(f"edge list built for n={n}")

        monkeypatch.setattr("graphent.catalog.build_graph", refuse)
        for name in ("complete", "path", "star"):
            with pytest.raises(CapabilityError):
                builtin_family(name, 17)


class TestExactValue:
    @pytest.mark.parametrize("text,approx", [
        ("1+log2(3)+log2(3-sqrt3)", 2.9275),
        ("2+log2(3)", 3.5850),
        ("3+log2(3)+log2(3-sqrt3)", 4.9275),
        ("3+log2(3)", 4.5850),
        ("2+3*log2(3)+log2(2-sqrt3)", 4.8549),
    ])
    def test_four_decimal_approximations(self, text, approx):
        assert round(exact_value_eval(parse_exact_value(text)), 4) == approx

    def test_integer(self):
        v = parse_exact_value("3")
        assert v.q0 == 3 and v.terms == ()
        assert exact_value_eval(v) == 3.0

    def test_rational_coefficient(self):
        v = parse_exact_value("1/2+3/2*log2(3)")
        assert v.q0 == Fraction(1, 2)
        assert abs(exact_value_eval(v) - (0.5 + 1.5 * math.log2(3))) < 1e-15

    def test_string_round_trip(self):
        for text in ("1", "1+log2(3)+log2(3-sqrt3)", "2+3*log2(3)+log2(2-sqrt3)"):
            v = parse_exact_value(text)
            assert parse_exact_value(str(v)) == v

    def test_unknown_radical(self):
        with pytest.raises(CatalogError):
            parse_exact_value("1+log2(5-sqrt5)")

    @pytest.mark.parametrize("text", ["1/0", "1/0*log2(3)", "x", "1++2", "log23", "2log2(3)"])
    def test_malformed_rational_rejected(self, text):
        with pytest.raises(CatalogError):
            parse_exact_value(text)

    def test_negative_total_rejected(self):
        with pytest.raises(CatalogError):
            ExactValue(Fraction(-5), ((Fraction(1), "3"),))

    @pytest.mark.parametrize("text", ["1e400", "1e308+1e308", "1e400*log2(3)"])
    def test_non_finite_total_rejected(self, text, tmp_path):
        # the first overflowed in float(), the second summed to inf
        with pytest.raises(CatalogError, match="finite"):
            parse_exact_value(text)
        path = tmp_path / "cat.jsonl"
        path.write_text(f'{{"id": 1, "n": 2, "edges": [[0,1]], "expected": "{text}"}}\n')
        with pytest.raises(CatalogError, match=":1"):
            load_catalog(path)


class TestAlphabet:
    def test_all_normalized(self):
        for q in alphabet_constants():
            assert abs(abs(q.x) ** 2 + abs(q.y) ** 2 - 1) <= 1e-15

    def test_labels_align(self):
        assert len(alphabet_constants()) == len(ALPHABET_LABELS) == 10

    def test_phi1_components(self):
        phi1 = PAIR_PHI[0]
        assert abs(phi1.x - 0.459700843380983) <= 1e-15
        assert abs(abs(phi1.y) - 0.8880738339771153) <= 1e-15
        assert abs(math.atan2(phi1.y.imag, phi1.y.real) - math.pi / 4) <= 1e-15

    def test_phi_phases(self):
        phases = [math.atan2(q.y.imag, q.y.real) for q in PAIR_PHI]
        expect = [math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4]
        assert all(abs(a - b) <= 1e-15 for a, b in zip(phases, expect))

    def test_minus_state(self):
        minus = alphabet_constants()[ALPHABET_LABELS.index("-")]
        assert abs(minus.x - 1 / math.sqrt(2)) <= 1e-15
        assert abs(minus.y + 1 / math.sqrt(2)) <= 1e-15

    def test_circle_state(self):
        circle = alphabet_constants()[ALPHABET_LABELS.index("O")]
        assert abs(circle.y - (-1j / math.sqrt(2))) <= 1e-15


class TestCatalogIO:
    def test_load_seed_catalog(self):
        entries = load_seed_catalog()
        ids = {e.id for e in entries}
        assert {"1", "8", "cycle4", "cycle6", "cycle7", "cycle8"} <= ids

    def test_seed_catalog_consistency(self):
        # classification matches each entry's category; equal-bounds entries
        # carry the settled integer as their expected value
        for e in load_seed_catalog():
            report = classify(e.graph)
            if e.category is not None:
                assert report.category.value == e.category, e.id
            if e.category in ("T1", "T2"):
                assert report.equal
                assert exact_value_eval(e.expected) == report.upper == report.lower

    def test_ring5_entry(self):
        entry = next(e for e in load_seed_catalog() if e.id == "8")
        assert entry.graph == builtin_family("cycle", 5)
        assert entry.ps_reference == 0.997
        assert round(exact_value_eval(entry.expected), 4) == 2.9275

    def test_round_trip(self, tmp_path):
        entries = load_seed_catalog()
        out = tmp_path / "cat.jsonl"
        save_catalog(entries, out)
        assert load_catalog(out) == entries

    def test_graph6_entry(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": "x", "n": 2, "graph6": "A_"}\n')
        (entry,) = load_catalog(path)
        assert entry.graph.edges() == [(0, 1)]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": 1, "n": 2, "edges": [[0,1]]}\n'
                        '{"id": 1, "n": 2, "edges": []}\n')
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": 1, "n": 2, "edges": [[0,1]]}\nnot json\n')
        with pytest.raises(CatalogError, match=":2"):
            load_catalog(path)

    def test_self_loop_edges_rejected(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": 1, "n": 2, "edges": [[0,0]]}\n')
        with pytest.raises(CatalogError):
            load_catalog(path)

    @pytest.mark.parametrize("line", [
        '{"id": 1, "n": 2, "edges": [[0, "x"]]}',
        '{"id": 1, "n": 2, "edges": [[0.0, 1.0]]}',
        '{"id": 1, "n": 2.7, "edges": [[0, 1]]}',
        '{"id": 1, "n": 2, "edges": 5}',
        '{"id": 1, "n": 2, "graph6": 5}',
        '{"id": 1, "n": 2, "edges": [[0, 1]], "ps": [1]}',
        '{"id": 1, "n": true, "edges": []}',
        '{"id": 1, "n": 2, "edges": [[true, false]]}',
        '{"id": 2, "n": 5.0, "graph6": "D??"}',
        '{"id": 2, "n": 4, "graph6": "D??"}',
        '{"id": 1, "n": 2, "edges": [[0, 1]], "category": "T9"}',
        '{"id": 1, "n": 2, "edges": [[0, 1]], "category": "T3"}',
        '5',
    ])
    def test_malformed_entry_rejected(self, tmp_path, line):
        path = tmp_path / "cat.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CatalogError, match=":1"):
            load_catalog(path)

    # An id is a JSON string or integer, and notes are a string.
    @pytest.mark.parametrize("line", [
        '{"id": null, "n": 2, "edges": [[0, 1]]}',
        '{"id": [1], "n": 2, "edges": [[0, 1]]}',
        '{"id": {"a": 1}, "n": 2, "edges": [[0, 1]]}',
        '{"id": 1.5, "n": 2, "edges": [[0, 1]]}',
        '{"id": true, "n": 2, "edges": [[0, 1]]}',
        '{"id": 1, "n": 2, "edges": [[0, 1]], "notes": {"x": [1, 2]}}',
        '{"id": 1, "n": 2, "edges": [[0, 1]], "notes": 3}',
    ])
    def test_id_and_notes_types(self, tmp_path, line):
        path = tmp_path / "cat.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CatalogError, match=":1: "):
            load_catalog(path)

    def test_string_and_integer_ids(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": 7, "n": 2, "edges": [[0, 1]], "notes": "bell"}\n'
                        '{"id": "seven", "n": 1, "edges": []}\n')
        assert [e.id for e in load_catalog(path)] == ["7", "seven"]

    @pytest.mark.parametrize("ps", ["NaN", "-Infinity", "Infinity", "-0.5", "1.5",
                                    '"0.5"', "true", "null"])
    def test_ps_must_be_a_probability(self, tmp_path, ps):
        # json.loads accepts NaN and Infinity; table --format json would then
        # print them back as invalid JSON
        path = tmp_path / "cat.jsonl"
        path.write_text('{"id": 1, "n": 2, "edges": [[0,1]]}\n'
                        f'{{"id": 2, "n": 2, "edges": [[0,1]], "ps": {ps}}}\n')
        with pytest.raises(CatalogError, match=":2: 'ps' must be a number in"):
            load_catalog(path)

    @pytest.mark.parametrize("ps", [0, 1, 0.25])
    def test_ps_in_range_loads_as_float(self, tmp_path, ps):
        path = tmp_path / "cat.jsonl"
        path.write_text(f'{{"id": 1, "n": 2, "edges": [[0,1]], "ps": {ps}}}\n')
        (entry,) = load_catalog(path)
        assert entry.ps_reference == ps and type(entry.ps_reference) is float

    def test_t3_requires_expected(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text(
            '{"id": 1, "n": 5, "edges": [[0,1],[1,2],[2,3],[3,4],[0,4]], '
            '"category": "T3"}\n')
        with pytest.raises(CatalogError, match="expected"):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text("")
        assert load_catalog(path) == []

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        path.write_text('# heading\n{"id": 1, "n": 1, "edges": []}\n')
        assert len(load_catalog(path)) == 1
