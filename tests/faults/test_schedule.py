"""Fault specifications and their compilation into clock events."""

from __future__ import annotations

import pytest

from repro.faults import (
    Corruption,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
)


class TestSpecValidation:
    def test_node_crash_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            NodeCrash("", at_s=1.0)
        with pytest.raises(ValueError):
            NodeCrash("node-0", at_s=-1.0)
        with pytest.raises(ValueError):
            NodeCrash("node-0", at_s=2.0, recover_at_s=2.0)

    def test_link_degradation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LinkDegradation(at_s=1.0, until_s=1.0, factor=0.5)
        with pytest.raises(ValueError):
            LinkDegradation(at_s=1.0, until_s=2.0, factor=1.0)
        with pytest.raises(ValueError):
            LinkDegradation(at_s=1.0, until_s=2.0, factor=0.0)
        with pytest.raises(ValueError):
            LinkDegradation(at_s=1.0, until_s=2.0, factor=0.5, flaps=-1)

    def test_corruption_rejects_empty_context(self):
        with pytest.raises(ValueError):
            Corruption("", at_s=1.0)

    def test_unknown_spec_type_rejected_at_compile(self):
        with pytest.raises(TypeError):
            FaultSchedule([object()])


class TestCompilation:
    def test_crash_with_recovery_compiles_to_down_up(self):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=1.0, recover_at_s=4.0)])
        actions = [(event.at_s, event.action) for event in schedule.events()]
        assert actions == [(1.0, "node_down"), (4.0, "node_up")]

    def test_crash_without_recovery_is_one_event(self):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=1.0)])
        assert [event.action for event in schedule.events()] == ["node_down"]

    def test_flapping_link_alternates_degrade_restore(self):
        fault = LinkDegradation(at_s=0.0, until_s=5.0, factor=0.5, flaps=2)
        schedule = FaultSchedule([fault])
        events = schedule.events()
        # 2 * flaps + 1 = 5 equal sub-windows plus the final restore.
        assert [event.action for event in events] == [
            "link_degrade",
            "link_restore",
            "link_degrade",
            "link_restore",
            "link_degrade",
            "link_restore",
        ]
        assert [event.at_s for event in events] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(event.factor == 0.5 for event in events if event.injects)

    def test_events_sorted_across_faults(self):
        schedule = FaultSchedule(
            [
                NodeCrash("node-1", at_s=3.0),
                LinkDegradation(at_s=1.0, until_s=2.0, factor=0.5),
                Corruption("ctx", at_s=0.5),
            ]
        )
        instants = [event.at_s for event in schedule.events()]
        assert instants == sorted(instants)

    def test_fault_ids_index_declaration_order(self):
        crash = NodeCrash("node-0", at_s=1.0)
        corrupt = Corruption("ctx", at_s=2.0)
        schedule = FaultSchedule([crash, corrupt])
        assert schedule.fault("fault-0") is crash
        assert schedule.fault("fault-1") is corrupt

    def test_injects_flags_injections_not_recoveries(self):
        schedule = FaultSchedule([NodeCrash("node-0", at_s=1.0, recover_at_s=2.0)])
        down, up = schedule.events()
        assert down.injects and not up.injects

    def test_kind_and_target_describe_the_fault(self):
        assert NodeCrash("node-3", at_s=0.0).kind == "crash"
        assert NodeCrash("node-3", at_s=0.0).target == "node-3"
        assert LinkDegradation(at_s=0.0, until_s=1.0, factor=0.5).target == "serving-link"
        assert Corruption("ctx", at_s=0.0).target == "ctx@replica"
        assert Corruption("ctx", at_s=0.0, node_id="node-1").target == "ctx@node-1"
