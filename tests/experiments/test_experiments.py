"""Tests for the experiment harness (run with tiny, fast settings).

These are integration tests of the table/figure reproductions: they check the
*shape* of each result — who wins, by roughly what factor, where crossovers
fall — rather than absolute numbers.
"""

from __future__ import annotations

import pytest

import repro.experiments
from repro.experiments import (
    ALL_EXPERIMENTS,
    run_appendix_e,
    run_figure3,
    run_figure4,
    run_figure7,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12_concurrency,
    run_figure12_context_length,
    run_figure13,
    run_figure14,
    run_figure15,
    run_figure16,
    run_figure18,
    run_figure19,
    run_figure5,
    run_figure8,
    run_resilience,
    run_table1,
    run_table2,
    run_tiered_storage,
)
from repro.experiments.common import ExperimentResult


def by_method(result, key="method"):
    grouped = {}
    for row in result.rows:
        grouped.setdefault(row[key], []).append(row)
    return grouped


class TestHarnessBasics:
    def test_every_run_function_is_registered_exactly_once(self):
        exported = sorted(
            name for name in repro.experiments.__all__ if name.startswith("run_")
        )
        registered = sorted(run.__name__ for run in ALL_EXPERIMENTS.values())
        assert registered == exported

    def test_format_table_prints_the_union_of_row_keys(self):
        result = ExperimentResult(name="x", description="panels")
        result.add_row(panel="a", left=1.0)
        result.add_row(panel="b", right=2.0, left=3.0)
        header, first, second = result.format_table().splitlines()[1:]
        assert header == "panel\tleft\tright"
        assert first == "a\t1.000\t"
        assert second == "b\t3.000\t2.000"

    def test_experiment_result_helpers(self):
        result = ExperimentResult(name="x", description="demo")
        result.add_row(a=1, b=2.5)
        result.add_row(a=2, b=3.5)
        assert [row["a"] for row in result.rows] == [1, 2]
        assert result.filter(a=2)[0]["b"] == 3.5
        assert "demo" in result.format_table()


class TestTables:
    def test_table2_matches_paper(self):
        result = run_table2()
        rows = {row["dataset"]: row for row in result.rows}
        assert rows["longchat"]["size"] == 200
        assert abs(rows["longchat"]["median_tokens"] - 9_400) < 500
        assert rows["wikitext"]["size"] == 62

    def test_table1_ordering(self):
        result = run_table1(num_contexts=1, context_token_cap=1_500)
        rows = {row["technique"]: row for row in result.rows}
        # CacheGen shrinks the cache by ~3x or more vs 8-bit quantization.
        assert rows["quant-8bit"]["kv_size_mb"] / rows["cachegen"]["kv_size_mb"] > 2.5
        # Composition shrinks H2O / LLMLingua further.
        assert rows["cachegen+h2o"]["kv_size_mb"] < rows["h2o"]["kv_size_mb"] / 2.5
        assert rows["cachegen+llmlingua"]["kv_size_mb"] < rows["llmlingua"]["kv_size_mb"] / 2.5
        # Accuracy stays within a few percent.
        assert rows["cachegen"]["accuracy"] > 0.95 * rows["quant-8bit"]["accuracy"]


class TestFigures:
    def test_figure3_deltas_are_more_concentrated(self):
        result = run_figure3(models=("llama-7b",), num_contexts=1, context_token_cap=1_200)
        (row,) = result.rows
        assert 2.0 < row["variance_ratio"] < 3.5
        assert row["delta_cdf@1.0"] > row["original_cdf@1.0"]

    def test_figure4_shallow_layers_are_more_sensitive(self):
        result = run_figure4(
            models=("llama-7b",), num_contexts=1, num_groups=3, context_token_cap=1_200
        )
        series = [row["accuracy"] for row in result.rows]
        assert [row["layer_group"] for row in result.rows] == [0, 1, 2]
        assert series[0] < series[-1]

    def test_figure5_grouping_order(self):
        result = run_figure5(models=("llama-7b",), num_contexts=1, context_token_cap=1_200)
        row = result.rows[0]
        assert row["entropy_channel_layer"] < row["entropy_token"]

    def test_figure7_adaptation_meets_the_slo(self):
        result = run_figure7(num_tokens=3_000, slo_s=1.5, drop_at_s=0.3, recover_at_s=1.5)
        rows = {row["method"]: row for row in result.rows}
        assert rows["cachegen"]["meets_slo"] and not rows["quantization"]["meets_slo"]
        assert rows["cachegen"]["loading_delay_s"] < rows["quantization"]["loading_delay_s"]
        # The outage is bridged by recomputing a chunk from text.
        assert "text" in rows["cachegen"]["configs"].split(",")

    def test_figure8_speedups(self):
        result = run_figure8(
            pairs=(("mistral-7b", "longchat"),),
            num_contexts=1,
            quant_bits=(8,),
            context_token_cap=2_000,
        )
        rows = by_method(result)
        cachegen = rows["cachegen"][0]["ttft_s"]
        assert rows["text"][0]["ttft_s"] / cachegen > 2.0
        assert rows["quant-8bit"][0]["ttft_s"] / cachegen > 1.5

    def test_figure9_default_level_beats_quantization(self):
        result = run_figure9(
            pairs=(("mistral-7b", "longchat"),),
            num_contexts=1,
            quant_bits=(8, 4),
            levels=("medium",),
            context_token_cap=1_500,
        )
        rows = {row["method"]: row for row in result.rows}
        assert rows["quant-8bit"]["kv_size_mb"] / rows["cachegen-medium"]["kv_size_mb"] > 2.5
        assert rows["cachegen-medium"]["kv_size_mb"] < rows["quant-4bit"]["kv_size_mb"]
        assert rows["cachegen-medium"]["relative_quality"] > 0.96

    def test_figure10_composes_with_context_compression(self):
        result = run_figure10(models=("mistral-7b",), num_contexts=1, context_token_cap=1_500)
        rows = {row["method"]: row for row in result.rows}
        assert rows["cachegen+h2o"]["kv_size_mb"] < rows["h2o"]["kv_size_mb"] / 2.5
        assert rows["cachegen+llmlingua"]["kv_size_mb"] < rows["llmlingua"]["kv_size_mb"] / 2.5
        assert rows["cachegen+h2o"]["quality"] > rows["h2o"]["quality"] - 0.05

    def test_figure11_cachegen_wins_at_low_bandwidth(self):
        result = run_figure11(bandwidths_gbps=(1.0, 100.0), num_tokens=2_000)
        rows = by_method(result)
        low_bw = {m: r[0]["ttft_s"] for m, r in rows.items()}
        assert low_bw["cachegen"] < low_bw["quant-8bit"]
        assert low_bw["cachegen"] < low_bw["text"]

    def test_figure12_concurrency_hurts_text_most(self):
        result = run_figure12_concurrency(concurrency_levels=(1, 8), num_tokens=2_000)
        rows = by_method(result)

        def absolute_increase(method):
            series = {r["concurrent_requests"]: r["ttft_s"] for r in rows[method]}
            return series[8] - series[1]

        # Prefill dominates the text path, so losing GPU cycles costs it far
        # more absolute TTFT than it costs CacheGen.
        assert absolute_increase("text") > 3 * absolute_increase("cachegen")

    def test_figure12_short_context_reverts_to_text(self):
        result = run_figure12_context_length(context_lengths=(100, 6_000))
        rows = by_method(result)
        short = {r["context_tokens"]: r["ttft_s"] for r in rows["cachegen"]}
        text = {r["context_tokens"]: r["ttft_s"] for r in rows["text"]}
        assert short[100] <= text[100] + 1e-9

    def test_figure13_adaptation_lowers_violations(self):
        result = run_figure13(
            slos_s=(1.0,), num_traces=2, num_contexts=1, context_token_cap=3_000
        )
        rows = {row["method"]: row for row in result.rows}
        assert rows["cachegen"]["violation_rate"] <= rows["quantization"]["violation_rate"]

    def test_figure13_charges_a_text_reprefill_to_the_slo(self):
        """Under 0.2 Gbps the context ships as text and is re-prefilled: almost
        no bytes move, yet ~1.8 s of GPU time for 3 k tokens misses a 1 s SLO."""
        result = run_figure13(
            slos_s=(1.0,),
            num_traces=1,
            num_contexts=1,
            context_token_cap=3_000,
            min_gbps=0.01,
            max_gbps=0.2,
        )
        rows = {row["method"]: row for row in result.rows}
        assert rows["cachegen"]["violation_rate"] == 1.0
        assert rows["cachegen-no-adapt"]["violation_rate"] == 1.0

    def test_figure14_panels_present(self):
        result = run_figure14(num_tokens=2_000)
        panels = {row["panel"] for row in result.rows}
        assert panels == {"ttft_breakdown", "flops", "offline_delay", "storage"}

    def test_figure15_ac_reduces_size(self):
        result = run_figure15(num_contexts=1, context_token_cap=1_200)
        rows = {row["variant"]: row for row in result.rows}
        assert rows["quant+ac"]["bits_per_element"] < rows["default-quant"]["bits_per_element"]
        assert rows["cachegen"]["quality"] >= rows["quant+ac"]["quality"]

    def test_figure16_cachegen_best_mos(self):
        result = run_figure16(num_samples=1, context_token_cap=2_000, bandwidth_gbps=0.8)
        rows = by_method(result, key="pipeline")
        assert rows["cachegen"][0]["mos"] >= rows["quantization"][0]["mos"]
        assert rows["cachegen"][0]["mos"] >= rows["original"][0]["mos"]

    def test_figure18_beats_the_intrusive_baselines(self):
        result = run_figure18(
            num_contexts=1,
            smaller_model_bits=(8,),
            scissorhands_keeps=(0.3,),
            gisting_ratios=(8.0,),
            cachegen_levels=("medium",),
            context_token_cap=1_200,
        )
        panels = {
            panel: {row["method"]: row for row in result.filter(panel=panel)}
            for panel in ("smaller_model", "context_selection", "gisting")
        }
        # Perplexity (lower is better) against the smaller model, accuracy elsewhere.
        smaller = panels["smaller_model"]
        assert smaller["cachegen-medium"]["quality"] < smaller["smaller-model-8bit"]["quality"]
        gisting = panels["gisting"]
        assert gisting["cachegen-medium"]["quality"] >= gisting["gisting"]["quality"]
        assert set(panels["context_selection"]) == {"scissorhands", "cachegen-medium"}

    def test_figure19_improvement_positive(self):
        result = run_figure19(bandwidths_gbps=(3.0,), concurrency_levels=(1, 4), num_tokens=2_000)
        assert all(row["improvement"] > 1.0 for row in result.rows)

    def test_appendix_e_breakeven(self):
        result = run_appendix_e()
        assert result.metadata["breakeven_requests_per_month"] < 500
        assert result.filter(requests_per_month=1_000)[0]["caching_is_cheaper"]

    def test_appendix_e_cold_tier_breaks_even_earlier(self):
        result = run_appendix_e()
        assert (
            result.metadata["cold_breakeven_requests_per_month"]
            < result.metadata["breakeven_requests_per_month"]
        )
        row = result.filter(requests_per_month=50)[0]
        assert row["cold_storage_usd_per_month"] < row["storage_usd_per_month"]

    def test_tiered_storage_sweep_shape(self):
        result = run_tiered_storage(
            hot_fractions=(1.0, 0.25), num_requests=24, num_contexts=6, concurrency=3
        )
        baseline = result.filter(hot_fraction=1.0)[0]
        tiered = result.filter(hot_fraction=0.25)[0]
        # The single-tier baseline never demotes; the tiered split demotes
        # under pressure instead of dropping, and reports cold hits.
        assert baseline["demotions"] == 0 and baseline["cold_hit_ratio"] == 0.0
        assert tiered["demotions"] > 0
        assert tiered["evict_drops"] == 0
        assert tiered["cold_hit_ratio"] > 0.0
        assert tiered["hot_hit_ratio"] + tiered["cold_hit_ratio"] == pytest.approx(
            tiered["hit_ratio"]
        )
        # Shifting budget to the cheaper tier cuts the storage bill.
        assert tiered["storage_usd_per_month"] < baseline["storage_usd_per_month"]
        assert tiered["cost_usd_per_request"] > 0.0

    def test_resilience_replication_rides_out_a_crash(self):
        result = run_resilience(fault_intensities=(1.0,), num_requests=24, num_contexts=4)
        (one,) = result.filter(replication=1)
        (two,) = result.filter(replication=2)
        # One replica: the crashed node's contexts fall back to text re-prefill.
        assert one["degraded"] > 0 and one["text_served"] == one["degraded"]
        assert one["slo_attainment"] < 0.9
        # Two: reads fail over and re-replication restores redundancy.
        assert two["degraded"] == 0 and two["failovers"] > 0
        assert two["repairs_completed"] > 0
        assert two["slo_attainment"] > one["slo_attainment"]
