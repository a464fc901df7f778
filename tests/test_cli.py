import random
import re
import string
import time

import pytest

from common import ground, le, random_dmp, render_dmp, render_preference_reference

from ordpref import fixtures, lattice
from ordpref.cli import InputError, main, parse_monoid_spec
from ordpref.monoids import (
    beta_both_monoid,
    closure,
    dictator_monoid,
    filter_monoid,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from ordpref.relations import BinaryRelation, GroundSet
from ordpref.textio import (
    DmpParseError,
    parse_dmp,
    parse_morphism,
    parse_relations,
    render_preference,
)

Y2 = ground(2)

EXAMPLE1_TEXT = """\
# five outcomes, three incomparable middles
outcomes: 0 a b c 1
order: 0<a 0<b 0<c a<1 b<1 c<1
strategies: x1 x2
states: y1 y2 y3
row x1: b c 0
row x2: 0 a 1
"""


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "game.dmp"
    path.write_text(EXAMPLE1_TEXT)
    return str(path)


class TestParseDmp:
    def test_example1_round_trip(self):
        game = parse_dmp(EXAMPLE1_TEXT)
        assert game == fixtures.example1()
        assert parse_dmp(render_dmp(game)) == game

    def test_render_round_trip_on_fixtures(self):
        for game in (
            fixtures.example1(),
            fixtures.example3(),
            fixtures.example4(),
            fixtures.example4_extended(),
        ):
            assert parse_dmp(render_dmp(game)) == game

    def test_missing_section(self):
        with pytest.raises(DmpParseError, match="missing section 'order'"):
            parse_dmp("outcomes: a\nstrategies: x1\nstates: y1\nrow x1: a\n")

    def test_duplicate_section_reports_line(self):
        bad = EXAMPLE1_TEXT + "states: z1\n"
        with pytest.raises(DmpParseError, match="line 8.*duplicate section"):
            parse_dmp(bad)

    def test_unknown_outcome_in_row(self):
        bad = EXAMPLE1_TEXT.replace("row x2: 0 a 1", "row x2: 0 q 1")
        with pytest.raises(DmpParseError, match="unknown outcome 'q'"):
            parse_dmp(bad)

    def test_wrong_row_arity(self):
        bad = EXAMPLE1_TEXT.replace("row x2: 0 a 1", "row x2: 0 a")
        with pytest.raises(DmpParseError, match="has 2 entries, expected 3"):
            parse_dmp(bad)

    def test_cyclic_order(self):
        bad = EXAMPLE1_TEXT.replace("order: 0<a 0<b 0<c a<1 b<1 c<1", "order: 0<a a<0")
        with pytest.raises(DmpParseError, match="line 3"):
            parse_dmp(bad)

    def test_undeclared_strategy_row(self):
        bad = EXAMPLE1_TEXT + "row x9: 0 0 0\n"
        with pytest.raises(DmpParseError, match="undeclared strategy 'x9'"):
            parse_dmp(bad)

    def test_malformed_order_item(self):
        bad = EXAMPLE1_TEXT.replace("order: 0<a 0<b 0<c a<1 b<1 c<1", "order: 0a")
        with pytest.raises(DmpParseError, match="must look like u<v"):
            parse_dmp(bad)


class TestParseRelations:
    def test_two_blocks(self):
        rels = parse_relations("y1 y1\ny1 y2\n\ny2 y1\n", Y2)
        assert rels == [
            BinaryRelation.from_pairs(Y2, [("y1", "y1"), ("y1", "y2")]),
            BinaryRelation.from_pairs(Y2, [("y2", "y1")]),
        ]

    def test_empty_text_is_one_empty_relation(self):
        assert parse_relations("# nothing\n", Y2) == [BinaryRelation(Y2, 0)]

    def test_unknown_state(self):
        with pytest.raises(DmpParseError, match="unknown state 'z'"):
            parse_relations("y1 z\n", Y2)

    def test_wrong_arity(self):
        with pytest.raises(DmpParseError, match="exactly two"):
            parse_relations("y1 y2 y1\n", Y2)


class TestParseMorphism:
    def test_basic(self):
        game = fixtures.example1()
        text = (
            "outcomes: lo hi\norder: lo<hi\n"
            "map 0 -> lo\nmap a -> hi\nmap b -> hi\nmap c -> hi\nmap 1 -> hi\n"
        )
        mapping, order = parse_morphism(text, game.outcomes.ground)
        assert mapping["0"] == "lo" and mapping["1"] == "hi"
        assert le(order, "lo", "hi")

    def test_unknown_source(self):
        with pytest.raises(DmpParseError, match="unknown source outcome"):
            parse_morphism("outcomes: z\norder:\nmap q -> z\n", Y2)

    def test_bad_map_line(self):
        with pytest.raises(DmpParseError, match="map a -> b"):
            parse_morphism("outcomes: z\norder:\nmap y1 z\n", Y2)

    def test_unknown_outcome_in_order(self):
        with pytest.raises(DmpParseError, match="line 2: unknown outcome 'z' in order"):
            parse_morphism("outcomes: lo hi\norder: lo<hi z<hi\n", Y2)

    def test_duplicate_and_missing_sections(self):
        with pytest.raises(DmpParseError, match="line 2: duplicate section 'outcomes'"):
            parse_morphism("outcomes: lo\noutcomes: hi\n", Y2)
        with pytest.raises(DmpParseError, match="missing section 'order'"):
            parse_morphism("outcomes: lo hi\n", Y2)


class TestRenderPreference:
    def test_matrix_and_pairs(self):
        from ordpref.dmp import pareto

        text = render_preference(pareto(fixtures.example1()))
        assert " x1" in text.splitlines()[0]
        assert "x1 >= x1" in text and "x2 >= x2" in text
        assert "x2 >= x1" not in text

    def test_matches_the_cell_by_cell_rendering(self):
        from ordpref.dmp import Preference, pareto

        rng = random.Random(73)
        for _ in range(30):
            nx = rng.choice([1, 2, 3, rng.randint(4, 200)])
            rows = pareto(random_dmp(rng, nx=nx, ny=rng.randint(1, 3), na=4)).rel.rows
            labels: set[str] = set()
            while len(labels) < nx:
                width = rng.randint(1, 6)
                labels.add("".join(rng.choices(string.ascii_letters + string.digits, k=width)))
            g = GroundSet(tuple(rng.sample(sorted(labels), nx)))
            pref = Preference(g, BinaryRelation.from_rows(g, rows))
            assert render_preference(pref) == render_preference_reference(pref)


class TestMonoidSpec:
    def test_canonical_names(self):
        assert parse_monoid_spec("pareto", Y2) == reflexive_monoid(Y2)
        assert parse_monoid_spec("universal", Y2) == universal_monoid(Y2)
        assert parse_monoid_spec("beta", Y2) == surjective_monoid(Y2)
        assert parse_monoid_spec("dual-beta", Y2) == total_monoid(Y2)
        assert parse_monoid_spec("beta-both", Y2) == beta_both_monoid(Y2)
        assert parse_monoid_spec("reflexive", Y2) == reflexive_monoid(Y2)
        assert parse_monoid_spec("surjective", Y2) == surjective_monoid(Y2)
        assert parse_monoid_spec("total", Y2) == total_monoid(Y2)

    def test_parametrized_names(self):
        assert parse_monoid_spec("dictator=y1", Y2) == dictator_monoid(Y2, "y1")
        assert parse_monoid_spec("filter=y1,y2", Y2) == filter_monoid(Y2, ["y1", "y2"])

    def test_gens_file(self, tmp_path):
        path = tmp_path / "gens.rel"
        path.write_text("y1 y2\ny2 y1\n")
        swap = BinaryRelation.from_pairs(Y2, [("y1", "y2"), ("y2", "y1")])
        assert parse_monoid_spec(f"gens={path}", Y2) == closure(Y2, [swap])

    def test_idempotent_file(self, tmp_path):
        path = tmp_path / "sigma.rel"
        path.write_text("y1 y1\ny2 y1\n")
        monoid = parse_monoid_spec(f"idempotent={path}", Y2)
        assert monoid.contains(
            BinaryRelation.from_pairs(Y2, [("y1", "y1"), ("y2", "y1")])
        )

    def test_idempotent_file_rejects_two_blocks(self, tmp_path):
        path = tmp_path / "sigma.rel"
        path.write_text("y1 y1\n\ny2 y2\n")
        with pytest.raises(InputError, match="exactly one relation"):
            parse_monoid_spec(f"idempotent={path}", Y2)

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown monoid spec"):
            parse_monoid_spec("bogus", Y2)

    @pytest.mark.parametrize(
        "spec",
        [
            "beta=junk", "pareto=x", "pareto=", "universal=y1", "beta-both=",
            "reflexive=x", "surjective=y1", "total=",
            "dictator", "atom", "filter", "idempotent", "gens",
        ],
    )
    def test_spec_outside_the_listed_forms_is_unknown(self, spec):
        with pytest.raises(InputError) as info:
            parse_monoid_spec(spec, Y2)
        assert str(info.value).startswith(f"unknown monoid spec {spec!r}; known: ")

    def test_bad_dictator_state(self):
        with pytest.raises(InputError):
            parse_monoid_spec("dictator=zz", Y2)

    @pytest.mark.parametrize(
        "spec, label", [("dictator=", "''"), ("atom=zz", "'zz'"), ("filter=y1,,y2", "''")]
    )
    def test_unknown_state_message_is_plain(self, spec, label):
        with pytest.raises(InputError) as info:
            parse_monoid_spec(spec, Y2)
        assert str(info.value) == f"monoid spec {spec!r}: unknown label {label}"

    def test_non_utf8_relation_file(self, tmp_path):
        path = tmp_path / "gens.rel"
        path.write_bytes("y1 y2 # \u00e9\n".encode("latin-1"))
        with pytest.raises(InputError, match=f"cannot read {path}: .*codec can't decode"):
            parse_monoid_spec(f"gens={path}", Y2)


class TestMainCommands:
    def test_validate(self, example1_file, capsys):
        assert main(["validate", "--dmp", example1_file]) == 0
        out = capsys.readouterr().out
        assert "2 strategies, 3 states, 5 outcomes" in out

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "--dmp", "/nonexistent.dmp"]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def assert_one_line_error(capsys, message):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_validate_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.dmp"
        path.write_bytes(b"\xff\xfe")
        assert main(["validate", "--dmp", str(path)]) == 2
        self.assert_one_line_error(capsys, "codec can't decode")

    def test_check_non_utf8_morphism(self, example1_file, tmp_path, capsys):
        morphism = tmp_path / "bad.mor"
        morphism.write_bytes(b"\xff\xfe")
        code = main(
            ["check", "--dmp", example1_file, "--monoid", "pareto",
             "--morphism", str(morphism)]
        )
        assert code == 2
        self.assert_one_line_error(capsys, "codec can't decode")

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.dmp"
        path.write_text("junk\n")
        assert main(["validate", "--dmp", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_derive(self, example1_file, capsys):
        assert main(["derive", "--dmp", example1_file, "--monoid", "beta"]) == 0
        out = capsys.readouterr().out
        assert "maximal strategies:" in out
        assert "suitable" in out

    def test_anomalies(self, capsys):
        assert main(["anomalies"]) == 0
        out = capsys.readouterr().out
        assert "4/4 scenarios passed" in out
        assert out.count("[PASS]") == 4

    def test_check_passes_for_beta(self, example1_file, capsys):
        assert main(["check", "--dmp", example1_file, "--monoid", "beta"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] A1 preorder" in out
        assert "[PASS] A2 contains Pareto-domination" in out
        assert "[PASS] A5 suitable" in out

    def test_check_fails_on_unsuitable_preference(self, tmp_path, capsys):
        game = fixtures.example3()
        path = tmp_path / "g3.dmp"
        path.write_text(render_dmp(game))
        code = main(["check", "--dmp", str(path), "--monoid", "universal"])
        assert code == 1
        assert "[FAIL] A5 suitable" in capsys.readouterr().out

    def test_check_with_morphism(self, example1_file, tmp_path, capsys):
        morphism = tmp_path / "collapse.mor"
        morphism.write_text(
            "outcomes: lo hi\norder: lo<hi\n"
            "map 0 -> lo\nmap a -> hi\nmap b -> hi\nmap c -> hi\nmap 1 -> hi\n"
        )
        code = main(
            ["check", "--dmp", example1_file, "--monoid", "pareto",
             "--morphism", str(morphism)]
        )
        assert code == 0
        assert "[PASS] A3 morphism preserves preference" in capsys.readouterr().out

    def test_lattice_summary(self, capsys):
        assert main(["lattice"]) == 0
        out = capsys.readouterr().out
        assert "16 closed submonoids on 2 states" in out
        assert "least: pareto" in out
        assert "greatest: universal" in out
        assert "dual atoms: beta dictator:y1 dictator:y2 dual-beta" in out

    def test_lattice_census_and_dot(self, tmp_path, capsys):
        game_path = tmp_path / "g.dmp"
        game_path.write_text(
            "outcomes: 0 a b c 1\norder: 0<a 0<b 0<c a<1 b<1 c<1\n"
            "strategies: x1 x2\nstates: y1 y2\nrow x1: b c\nrow x2: 0 a\n"
        )
        dot_path = tmp_path / "lattice.dot"
        code = main(["lattice", "--dmp", str(game_path), "--dot", str(dot_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "distinct derived preferences" in out
        assert dot_path.read_text().startswith("digraph closed_submonoids {")

    def test_lattice_dot_escapes_names(self, tmp_path):
        game_path = tmp_path / "q.dmp"
        game_path.write_text(
            "outcomes: 0 1\norder: 0<1\nstrategies: x1 x2\n"
            'states: y"1 y\\2\nrow x1: 0 1\nrow x2: 1 0\n'
        )
        dot_path = tmp_path / "q.dot"
        assert main(["lattice", "--dmp", str(game_path), "--dot", str(dot_path)]) == 0
        quoted = r'"((?:[^"\\]|\\.)*)"'
        names = set()
        for line in dot_path.read_text().splitlines()[2:-1]:
            match = re.fullmatch(rf"  {quoted}(?: -> {quoted})?;", line)
            assert match, line
            names |= {re.sub(r"\\(.)", r"\1", q) for q in match.groups() if q is not None}
        states = GroundSet(('y"1', "y\\2"))
        labels = lattice.element_labels(lattice.enumerate_exhaustive(states))
        assert names == set(labels)
        assert {'dictator:y"1', "dictator:y\\2"} <= names

    def test_lattice_generated(self, capsys):
        assert main(["lattice", "--states", "2", "--generated", "--max-gens", "1"]) == 0
        assert "closed submonoids generated" in capsys.readouterr().out

    def test_lattice_three_states_needs_generated(self, capsys):
        assert main(["lattice", "--states", "3"]) == 2
        assert "exactly 2 states" in capsys.readouterr().err

    def test_lattice_census_needs_a_two_state_game(self, example1_file, capsys):
        assert main(["lattice", "--dmp", example1_file]) == 2
        self.assert_one_line_error(capsys, "--dmp needs a game on exactly 2 states, got 3")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lattice", "--states", "0"], "--states must be at least 1, got 0"),
            (["lattice", "--states", "-2", "--generated"], "--states must be at least 1"),
            (["lattice", "--generated", "--max-gens", "-1"],
             "--max-gens must be at least 0, got -1"),
        ],
    )
    def test_lattice_out_of_range_arguments(self, argv, message, capsys):
        assert main(argv) == 2
        self.assert_one_line_error(capsys, message)

    def test_lattice_generated_too_large_fails_fast(self, capsys):
        start = time.perf_counter()
        assert main(["lattice", "--states", "5", "--generated"]) == 2
        assert time.perf_counter() - start < 1.0
        self.assert_one_line_error(capsys, "more than 65536 generator sets")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "--states", "30", "--generated", "--max-gens", "0"],
            ["lattice", "--states", "5", "--generated", "--max-gens", "0"],
            ["lattice", "--states", "100", "--generated"],
            ["lattice", "--states", "120", "--generated"],
            ["lattice", "--states", "1000000"],
            ["lattice", "--states", "1000000", "--generated", "--max-gens", "0"],
            ["lattice", "--states", "4", "--generated", "--max-gens", "2"],
        ],
    )
    def test_lattice_size_bounds_fail_fast(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200

    def test_lattice_without_generators_builds_no_relation(self, monkeypatch, capsys):
        def fail(ground):
            raise AssertionError("the relation pool was built")

        monkeypatch.setattr(lattice, "all_relations", fail)
        assert main(["lattice", "--states", "4", "--generated", "--max-gens", "0"]) == 0
        out = capsys.readouterr().out
        assert out == "1 closed submonoids generated by up to 0 relations on 4 states\n"

    def test_lattice_generated_refuses_dot(self, tmp_path, capsys):
        dot = tmp_path / "x.dot"
        assert main(["lattice", "--generated", "--dot", str(dot)]) == 2
        self.assert_one_line_error(capsys, "--dot draws the two-state lattice")
        assert not dot.exists()

    def test_lattice_dot_into_missing_directory(self, tmp_path, capsys):
        dot = tmp_path / "missing" / "x.dot"
        assert main(["lattice", "--dot", str(dot)]) == 2
        self.assert_one_line_error(capsys, f"cannot write {dot}: ")

    def test_gens_closure_too_large_fails_fast(self, tmp_path, capsys):
        # a 5-cycle, the swap y1<->y2 and the collapse y2->y1 generate all
        # 3125 maps on 5 states
        game = tmp_path / "five.dmp"
        game.write_text(
            "outcomes: lo hi\norder: lo<hi\nstrategies: x1 x2\n"
            "states: y1 y2 y3 y4 y5\nrow x1: lo hi lo hi lo\nrow x2: hi lo hi lo hi\n"
        )
        gens = tmp_path / "maps5.rel"
        gens.write_text(
            "y1 y2\ny2 y3\ny3 y4\ny4 y5\ny5 y1\n\n"
            "y1 y2\ny2 y1\ny3 y3\ny4 y4\ny5 y5\n\n"
            "y1 y1\ny2 y1\ny3 y3\ny4 y4\ny5 y5\n"
        )
        start = time.perf_counter()
        assert main(["derive", "--dmp", str(game), "--monoid", f"gens={gens}"]) == 2
        assert time.perf_counter() - start < 1.0
        self.assert_one_line_error(capsys, "holds more than 500 relations")

    def test_bad_monoid_spec_is_input_error(self, example1_file, capsys):
        assert main(["derive", "--dmp", example1_file, "--monoid", "nope"]) == 2
        assert "unknown monoid spec" in capsys.readouterr().err
