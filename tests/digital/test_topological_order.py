"""The topological order of :class:`Netlist`: golden pin and properties.

The order is part of the digital engines' contracts: it sets the
critical-path tie-breaking of :class:`StaticTimingAnalyzer` and the
gate axis of :class:`CompiledTimingGraph`.  Each golden entry stores
the SHA-256 of the newline-joined instance names; a change of even one
position changes the digest.  The hypothesis properties pin what the
order is (Kahn generations with flip-flop in-edges cut) on netlists
with registered feedback.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.digital.gates import CELL_TYPES
from repro.digital.generators import (array_multiplier, clocked_datapath,
                                      decoder, equality_comparator,
                                      fir_filter, kogge_stone_adder, lfsr,
                                      random_logic, ripple_adder,
                                      soc_netlist)
from repro.digital.netlist import Netlist
from repro.digital.simulator import EventDrivenSimulator, random_stimulus
from repro.digital.simulator_compiled import CompiledEventEngine
from repro.digital.timing import StaticTimingAnalyzer
from repro.robust.errors import ModelDomainError
from repro.technology import get_node

GOLDEN = {
    "random_logic_200": (
        lambda node: random_logic(node, n_gates=200, seed=0),
        "49ba35c2a495a4a7ab029c858ada7d05886327bd35004e196d06bbf52d8e3ce2"),
    "random_logic_2000": (
        lambda node: random_logic(node, n_gates=2000, seed=31),
        "bc4116d4677827dc92106e51848494ef89aaf1e85e7f7f96c351ba30257c6a9c"),
    "random_logic_seq_300": (
        lambda node: random_logic(node, n_gates=300, seed=7,
                                  sequential_fraction=0.15),
        "503c6242da1a09e4bff4741f54bcf9f07c3ae0eaef8fa2d0264154de2582e72f"),
    "ripple_adder_8": (
        lambda node: ripple_adder(node, width=8),
        "a9c4e22cea4811be23533ce9d5d1653fa82bd101f91f854d75b0f1c650a65f3b"),
    "ripple_adder_64": (
        lambda node: ripple_adder(node, width=64),
        "017dea0b1836ab8992c6834b30719a6256aa7cf7d9e7544c34b9ea5f2c108781"),
    "kogge_stone_adder_8": (
        lambda node: kogge_stone_adder(node, width=8),
        "d841481fb72e626a7f98426d6f224bf27fb9704a6354960421f416ca52dbc8ea"),
    "kogge_stone_adder_64": (
        lambda node: kogge_stone_adder(node, width=64),
        "38c1c536bcb8a161d02651a95b657457ce9a10ceb3d6ada880d473b5c85858a7"),
    "array_multiplier_4": (
        lambda node: array_multiplier(node, width=4),
        "f72260d178a94379df48d255d9b60ce23775e9c7f8ddb9ae5a95b4170f27096b"),
    "array_multiplier_12": (
        lambda node: array_multiplier(node, width=12),
        "0962c6099af5400b50d8f278da2b2da6085ae33e4324db1729e9c4dc70826b4c"),
    "fir_filter_2x4": (
        lambda node: fir_filter(node, n_taps=2, data_width=4),
        "301e557a727e0f02232ce6159534381554d57e03058a97316ef4502ae78a3ad8"),
    "fir_filter_8x8": (
        lambda node: fir_filter(node, n_taps=8, data_width=8),
        "a64a594a0df4f36d0d55980bba5f065197744f5cd220392fbcc0de1849b15450"),
    "soc_2000": (
        lambda node: soc_netlist(node, target_gates=2000, seed=0),
        "b22bfab7b2a28835b089e4853ff4bfa514c389cb4115ab81e2d5e9209aa3dfdc"),
    "soc_20000": (
        lambda node: soc_netlist(node, target_gates=20_000, seed=1),
        "a7e99ee776b6373de0fe5f33994086ab48b286b990b1c563ce9de26404751cd1"),
    "lfsr_8": (
        lambda node: lfsr(node, width=8),
        "e41146ffe98c2fb2a483181eacc74f924218109c0fcf65b49041aeaf9e12c5bf"),
    "clocked_datapath": (
        lambda node: clocked_datapath(node, seed=0),
        "d584426111d32f6fff5569ddcc03db3f8dc5094cce73f36bd53c0ffce93e4df8"),
    "decoder_3": (
        lambda node: decoder(node, n_select=3),
        "ea75683614434ba2d907b9231ecbfc91526ad976bcc79468ebbd3b7d0c3f487c"),
    "equality_comparator_8": (
        lambda node: equality_comparator(node, width=8),
        "907d0e4d40cd8eef6d2568f1eb3a4c7e5400e96d6e4dd6d2a608146c807ecbf0"),
}


def order_digest(netlist) -> str:
    """SHA-256 of the newline-joined topological instance names."""
    names = "\n".join(inst.name for inst in netlist.topological_order())
    return hashlib.sha256(names.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_topological_order_matches_golden(key):
    build, digest = GOLDEN[key]
    assert order_digest(build(get_node("65nm"))) == digest


# --- order properties over random netlists ---------------------------------

COMB_CELLS = ("INV", "BUF", "NAND2", "NOR2", "XOR2", "NAND3", "AOI21",
              "MUX2")


@st.composite
def registered_netlists(draw):
    """Random netlists whose flip-flops close feedback loops.

    Gates read primary inputs, any flip-flop output (declared up front,
    driven later) or earlier gate outputs, so the combinational part is
    acyclic while flip-flop data pins may come from any net, including
    ones that depend on the flip-flop itself.  An occasional undriven
    net exercises driverless inputs.
    """
    netlist = Netlist(get_node("65nm"), "prop")
    inputs = netlist.add_inputs(
        f"in{i}" for i in range(draw(st.integers(1, 4))))
    n_regs = draw(st.integers(0, 4))
    state = [f"q{i}" for i in range(n_regs)]
    readable = inputs + state + (["floating"] if draw(st.booleans())
                                 else [])
    for k in range(draw(st.integers(1, 30))):
        cell = draw(st.sampled_from(COMB_CELLS))
        pins = draw(st.lists(st.sampled_from(readable),
                             min_size=CELL_TYPES[cell].n_inputs,
                             max_size=CELL_TYPES[cell].n_inputs))
        readable.append(netlist.add_gate(cell, pins, f"c{k}").output)
    for i, q in enumerate(state):
        data = draw(st.sampled_from(readable))
        netlist.add_gate("DFF", [inputs[0], data], q, instance_name=f"r{i}")
    return netlist


def reference_generations(netlist):
    """Earliest Kahn generation of every instance, by recursion."""
    generation = {}

    def visit(name):
        if name not in generation:
            inst = netlist.instances[name]
            drivers = [netlist.driver_of(net) for net in inst.inputs]
            drivers = [d.name for d in drivers if d is not None]
            if inst.is_sequential or not drivers:
                generation[name] = 0
            else:
                generation[name] = 1 + max(visit(d) for d in drivers)
        return generation[name]

    for name in netlist.instances:
        visit(name)
    return generation


class TestOrderProperties:
    @settings(max_examples=60, deadline=None)
    @given(netlist=registered_netlists())
    def test_kahn_generation_order(self, netlist):
        order = [inst.name for inst in netlist.topological_order()]
        assert sorted(order) == sorted(netlist.instances)
        position = {name: k for k, name in enumerate(order)}
        for inst in netlist.instances.values():
            if inst.is_sequential:
                continue
            for net in inst.inputs:
                driver = netlist.driver_of(net)
                if driver is not None:
                    assert position[driver.name] < position[inst.name]
        generation = reference_generations(netlist)
        levels = [generation[name] for name in order]
        assert levels == sorted(levels)
        first = [name for name in order if generation[name] == 0]
        assert first == [name for name in netlist.instances
                         if generation[name] == 0]

    @settings(max_examples=30, deadline=None)
    @given(netlist=registered_netlists(), cut=st.integers(0, 1000))
    def test_add_gate_invalidates_cache(self, netlist, cut):
        before = [inst.name for inst in netlist.topological_order()]
        nets = list(netlist.nets)
        netlist.add_gate("NAND2", [nets[cut % len(nets)], nets[0]],
                         "late_out", instance_name="late")
        after = [inst.name for inst in netlist.topological_order()]
        assert len(after) == len(before) + 1
        fresh = Netlist(netlist.node)
        fresh.add_inputs(netlist.primary_inputs)
        for inst in netlist.instances.values():
            fresh.add_gate(inst.cell.cell_type.name, inst.inputs,
                           inst.output, instance_name=inst.name)
        assert after == [inst.name for inst in fresh.topological_order()]

    @settings(max_examples=30, deadline=None)
    @given(length=st.integers(1, 6), tail=st.integers(0, 3))
    def test_combinational_loop_raises(self, length, tail):
        netlist = Netlist(get_node("65nm"))
        netlist.add_input("a")
        net = f"x{length - 1}"
        for i in range(length):
            net = netlist.add_gate("NAND2", ["a", net], f"x{i}").output
        for i in range(tail):
            net = netlist.add_gate("INV", [net], f"t{i}").output
        with pytest.raises(ModelDomainError, match="loop"):
            netlist.topological_order()

    def test_registered_loop_is_legal(self):
        netlist = Netlist(get_node("65nm"))
        netlist.add_input("en")
        netlist.add_gate("INV", ["q"], "d", instance_name="inv")
        netlist.add_gate("DFF", ["en", "d"], "q", instance_name="ff")
        assert [inst.name for inst in netlist.topological_order()] \
            == ["ff", "inv"]


class TestEventsWithinStaArrival:
    """Cross-engine invariant: no toggle lands after its STA arrival.

    Within a clock cycle, an event on a net can only come from a
    primary-input change (launched at 1% of the period), a flip-flop
    clk-to-q launch, or a gate re-evaluation one gate delay after an
    input event.  Each is bounded by the net's static-timing arrival
    time plus the input launch offset, for either event engine.  This
    ties the topological order that drives STA to the timing semantics
    of simulation, independently of either engine's own code.
    """

    @settings(max_examples=40, deadline=None)
    @given(netlist=registered_netlists(), seed=st.integers(0, 10_000),
           n_cycles=st.integers(1, 5),
           period=st.sampled_from([1e-10, 4e-10, 2e-9]))
    def test_toggles_bounded_by_arrival(self, netlist, seed, n_cycles,
                                        period):
        arrival = StaticTimingAnalyzer(netlist).analyze().arrival_times
        stimulus = random_stimulus(netlist, n_cycles, seed=seed)
        scalar = EventDrivenSimulator(netlist, clock_period=period).run(
            stimulus, n_cycles)
        trace = CompiledEventEngine(netlist, clock_period=period).run(
            stimulus, n_cycles)
        streams = {
            "scalar": [(e.time, e.net) for e in scalar.events],
            "compiled": [(float(t), trace.net_names[k]) for t, k in
                         zip(trace.times, trace.net_indices)],
        }
        assert streams["scalar"] == streams["compiled"]
        launch = 0.01 * period
        for engine, events in streams.items():
            for time, net in events:
                cycle = int(time // period)
                within = time - cycle * period
                assert within <= arrival.get(net, 0.0) + launch \
                    + 1e-9 * period, (engine, net, time)

def test_import_leaves_graph_library_unloaded():
    """The core packages import without the third-party graph library."""
    code = ("import sys, repro, repro.digital, repro.substrate, "
            "repro.exec; print('networkx' in sys.modules)")
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
