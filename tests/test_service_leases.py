"""The one lease policy: liveness escalation and the redelivery verdict."""

from repro.service.leases import (ALIVE, DEAD, SUSPECT, LivenessTable,
                                  redelivery_verdict)


class TestLivenessTable:
    def test_silence_escalates_and_a_message_revives(self):
        table = LivenessTable(suspect_after_s=1.0, dead_after_s=3.0)
        table.add("a", now=0.0, job=7)
        table.add("b", now=0.0)
        assert table.sweep(now=1.0) == []  # not silent *past* the bound
        assert table.sweep(now=1.5) == [("a", SUSPECT, 1.5),
                                        ("b", SUSPECT, 1.5)]
        assert table.sweep(now=1.6) == []  # already suspect: no repeat
        # Any message moves a suspect holder back to alive.
        assert table.touch("a", now=2.0) == SUSPECT
        assert table.entries["a"]["state"] == ALIVE
        assert table.entries["a"]["job"] == 7  # owner fields survive
        assert table.sweep(now=2.5) == []
        assert table.sweep(now=3.5) == [("a", SUSPECT, 1.5),
                                        ("b", DEAD, 3.5)]
        # Silence -> dead; a dead holder stays dead until re-added.
        assert table.sweep(now=5.5) == [("a", DEAD, 3.5)]
        assert table.touch("a", now=6.0) == DEAD
        assert table.entries["a"]["state"] == DEAD
        assert table.sweep(now=99.0) == []
        assert table.touch("nobody") is None
        table.add("a", now=100.0)
        assert table.touch("a", now=100.5) == ALIVE

    def test_alive_straight_to_dead_after_long_silence(self):
        table = LivenessTable(suspect_after_s=1.0, dead_after_s=2.0)
        table.add(42, now=10.0)
        assert table.sweep(now=13.0) == [(42, DEAD, 3.0)]

    def test_dead_bound_never_below_suspect_bound(self):
        table = LivenessTable(suspect_after_s=5.0, dead_after_s=1.0)
        assert table.dead_after_s == 5.0


class TestRedeliveryVerdict:
    def test_within_budget_redelivers(self):
        assert redelivery_verdict(2, max_redeliveries=2,
                                  cause="worker died") is None

    def test_past_budget_dead_letters_naming_the_cause(self):
        error = redelivery_verdict(3, max_redeliveries=2,
                                   cause="lease expired")
        assert error == "dead-lettered after 3 deliveries " \
                        "(last: lease expired)"
