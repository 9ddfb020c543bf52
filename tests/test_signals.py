"""Tests for derived signals (update expressions) and their integration
with the dataflow and session."""

import pytest

from repro.dataflow.signals import SignalError, SignalGraph


class TestSignalGraph:
    def test_base_signal(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        assert graph.get("a") == 1
        assert graph.set("a", 2) == {"a"}
        assert graph.get("a") == 2

    def test_unchanged_set_reports_nothing(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        assert graph.set("a", 1) == set()

    def test_derived_signal(self):
        graph = SignalGraph()
        graph.declare("a", 2)
        graph.declare("double", update="a * 2")
        graph.initialize()
        assert graph.get("double") == 4.0
        changed = graph.set("a", 5)
        assert changed == {"a", "double"}
        assert graph.get("double") == 10.0

    def test_chained_derivation(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        graph.declare("b", update="a + 1")
        graph.declare("c", update="b * 10")
        graph.initialize()
        assert graph.get("c") == 20.0
        graph.set("a", 4)
        assert graph.get("c") == 50.0

    def test_declaration_order_irrelevant(self):
        graph = SignalGraph()
        # c depends on b which is declared later.
        graph.declare("c", update="b * 10")
        graph.declare("b", update="a + 1")
        graph.declare("a", 1)
        graph.initialize()
        assert graph.get("c") == 20.0

    def test_derived_not_directly_settable(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        graph.declare("b", update="a + 1")
        graph.initialize()
        with pytest.raises(SignalError):
            graph.set("b", 99)

    def test_cycle_detected(self):
        graph = SignalGraph()
        graph.declare("x", update="y + 1")
        graph.declare("y", update="x + 1")
        with pytest.raises(SignalError):
            graph.initialize()

    def test_unknown_reference(self):
        graph = SignalGraph()
        graph.declare("x", update="ghost + 1")
        with pytest.raises(SignalError):
            graph.initialize()

    def test_duplicate_declaration(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        with pytest.raises(SignalError):
            graph.declare("a", 2)

    def test_preview_does_not_mutate(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        graph.declare("b", update="a * 10")
        graph.initialize()
        values = graph.preview("a", 3)
        assert values["b"] == 30.0
        assert graph.get("a") == 1
        assert graph.get("b") == 10.0

    def test_unchanged_derived_not_reported(self):
        graph = SignalGraph()
        graph.declare("a", 1)
        graph.declare("sign", update="a > 0 ? 1 : -1")
        graph.initialize()
        changed = graph.set("a", 2)  # sign stays 1
        assert changed == {"a"}


class TestDataflowIntegration:
    def test_derived_signal_dirties_watchers(self):
        from repro.dataflow import Dataflow, DataSource, create_transform

        graph = SignalGraph()
        graph.declare("base", 5)
        graph.declare("cut", update="base * 2")
        graph.initialize()

        flow = Dataflow()
        flow.attach_signal_graph(graph)
        src = flow.add(DataSource("src", [{"x": float(i)} for i in range(30)]))
        flow.add(create_transform("filter", "f", {"expr": "datum.x >= cut"},
                                  src))
        flow.run()
        assert len(flow.results("f")) == 20  # cut = 10

        changed = flow.set_signal("base", 10)
        assert changed == {"base", "cut"}
        evaluated = flow.run()
        assert [op.name for op in evaluated] == ["f"]
        assert len(flow.results("f")) == 10  # cut = 20


class TestSessionIntegration:
    SPEC = {
        "signals": [
            {"name": "base", "value": 10,
             "bind": {"input": "range", "min": 0, "max": 100}},
            {"name": "threshold", "update": "base * 2"},
        ],
        "data": [
            {"name": "raw", "url": "x://"},
            {"name": "out", "source": "raw", "transform": [
                {"type": "filter", "expr": "datum.v >= threshold"},
                {"type": "aggregate", "ops": ["count"], "as": ["n"]},
            ]},
        ],
        "marks": [{"type": "rect", "from": {"data": "out"},
                   "encode": {"update": {"y": {"field": "n"}}}}],
    }

    def make_session(self):
        from repro.core import VegaPlus

        rows = [{"v": float(i)} for i in range(100)]
        return VegaPlus(self.SPEC, data={"raw": rows})

    def test_startup_uses_initialized_derived_value(self):
        session = self.make_session()
        result = session.startup()
        assert result.datasets["out"] == [{"n": 80.0}]  # v >= 20

    def test_interaction_recomputes_derived_signal(self):
        session = self.make_session()
        session.startup()
        result = session.interact("base", 30)  # threshold becomes 60
        assert result.datasets["out"] == [{"n": 40.0}]
        assert session.signals["threshold"] == 60.0

    def test_derived_signal_translated_into_sql(self):
        session = self.make_session()
        # Force a server cut (100 rows would otherwise stay client-side).
        startup = session.startup(plan=session.custom_plan({"out": 2}))
        # The filter offloads with threshold's *value* inlined.
        sqls = [entry.sql for entry in startup.queries]
        assert any(">= 20" in sql for sql in sqls)
