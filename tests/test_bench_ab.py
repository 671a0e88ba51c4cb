"""The decision rule of ``tools/bench_ab.py`` (no benchmark is run here)."""

import json

import pytest

from bench_ab import (
    failed_verdict, judge_claim, parse_result, quartiles, unresolved, worse_by,
)

BASE = [2.00, 2.02, 2.04, 2.06, 2.08, 2.10, 2.12, 2.14, 2.16, 2.18]


def shifted(delta, base=BASE):
    return [b + delta for b in base]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_single_run(self):
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestJudgeClaim:
    def test_clear_gain_is_met(self):
        v = judge_claim(BASE, shifted(-0.7), "lower")
        assert (v.pairs, v.wins, v.losses, v.met) == (10, 10, 0, True)
        assert v.base_iqr == pytest.approx(0.09)
        assert v.head_median == pytest.approx(v.base_median - 0.7)

    def test_nine_of_ten_wins_suffice(self):
        head = shifted(-0.7)
        head[3] = BASE[3] + 0.5
        v = judge_claim(BASE, head, "lower")
        assert (v.wins, v.losses, v.met) == (9, 1, True)

    def test_ties_count_for_neither_side(self):
        head = shifted(-0.7)
        head[0], head[1] = BASE[0], BASE[1]
        v = judge_claim(BASE, head, "lower")
        assert (v.wins, v.losses, v.met) == (8, 0, False)

    def test_gap_inside_the_parents_own_spread_is_not_a_gain(self):
        v = judge_claim(BASE, shifted(-0.05), "lower")
        assert v.wins == 10 and not v.met
        # exactly the inter-quartile distance is still not "more than" it
        assert not judge_claim(BASE, shifted(-v.base_iqr), "lower").met

    def test_fewer_than_ten_pairs_claim_nothing(self):
        v = judge_claim(BASE[:9], shifted(-0.7)[:9], "lower")
        assert v.wins == 9 and not v.met

    def test_direction_follows_the_metric(self):
        assert judge_claim(BASE, shifted(+0.7), "higher").met
        slower = judge_claim(BASE, shifted(+0.7), "lower")
        assert (slower.wins, slower.losses, slower.met) == (0, 10, False)

    def test_unpaired_samples_rejected(self):
        with pytest.raises(ValueError):
            judge_claim(BASE, BASE[:-1], "lower")
        with pytest.raises(ValueError):
            judge_claim([], [], "lower")


class TestWorseBy:
    def test_sign_follows_the_metric(self):
        assert worse_by(2.0, 2.6, "lower") == pytest.approx(0.3)
        assert worse_by(2.0, 1.4, "lower") == pytest.approx(-0.3)
        assert worse_by(10.0, 7.0, "higher") == pytest.approx(0.3)
        assert worse_by(10.0, 13.0, "higher") == pytest.approx(-0.3)

    def test_zero_base(self):
        assert worse_by(0.0, 0.0, "lower") == 0.0
        assert worse_by(0.0, 1.0, "lower") == float("inf")


class TestUnresolved:
    #: a setup time that reads about 8 or about 13 ms by process
    BIMODAL = [0.0080, 0.0082, 0.0085, 0.0088, 0.0090, 0.0125, 0.0128, 0.0130,
               0.0131, 0.0133]

    def test_a_spread_within_the_bound_resolves(self):
        assert not unresolved(BASE, shifted(+0.3), "lower", 0.25)

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        q1, median, q3 = quartiles(self.BIMODAL)
        assert q3 - q1 > 0.25 * median
        for head in (self.BIMODAL, shifted(+0.001, self.BIMODAL)):
            assert unresolved(self.BIMODAL, head, "lower", 0.25)
        assert unresolved(self.BIMODAL, self.BIMODAL, "higher", 0.25)

    def test_unless_every_head_run_reads_better(self):
        faster = [b - 0.0054 for b in self.BIMODAL]  # max 0.0079 < min 0.0080
        assert not unresolved(self.BIMODAL, faster, "lower", 0.25)
        assert unresolved(self.BIMODAL, faster, "higher", 0.25)
        higher = [b + 0.0054 for b in self.BIMODAL]
        assert not unresolved(self.BIMODAL, higher, "higher", 0.25)


def run_result(failed=0, attempted=8):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"converge_s": {"value": 2.0, "unit": "s"}},
    }


class TestParseResult:
    def test_last_line_of_a_clean_run(self):
        out = "batch-add converge_s 2 s\n" + json.dumps(run_result()) + "\n"
        assert parse_result(0, out) == run_result()

    def test_failed_op_with_a_result_line_is_a_result_not_an_abort(self):
        # run.py prints its result line and then exits 1 when an op failed
        out = "FAILED\n" + json.dumps(run_result(failed=1))
        assert parse_result(1, out)["failed"] == 1

    @pytest.mark.parametrize("code, out", [
        (2, json.dumps(run_result())),       # harness error
        (3, ""),                             # no program in the checkout
        (1, ""),                             # "no iteration completed"
        (1, "error: no iteration completed"),
        (0, json.dumps({"metrics": {}})),    # not a result object
        (0, "[1, 2]"),
        (-9, json.dumps(run_result())),      # killed
    ])
    def test_no_usable_result_aborts(self, code, out):
        with pytest.raises(RuntimeError):
            parse_result(code, out)


class TestFailedVerdict:
    def test_clean_on_both_sides(self):
        runs = [run_result()] * 3
        assert failed_verdict(runs, runs) == (0.0, 0.0, 0, False)

    def test_larger_failed_share_or_wrong_answer_is_worse(self):
        base = [run_result()] * 4
        head = [run_result()] * 3 + [run_result(failed=1)]
        assert failed_verdict(base, head) == (0.0, 1 / 32, 1, True)

    def test_same_share_with_a_wrong_head_answer_is_still_worse(self):
        bad = [run_result(failed=1)]
        assert failed_verdict(bad, bad)[3] is True

    def test_head_failing_less_is_not_worse(self):
        base = [run_result(failed=2)]
        assert failed_verdict(base, [run_result()]) == (0.25, 0.0, 0, False)
