#!/usr/bin/env python3
"""Debugging a DTA program: golden model, traces, scheduler snapshots.

Three tools turn "my activity is slow/wrong/stuck" into a diagnosis:

1. the **functional interpreter** (`repro.isa.interpreter`) separates
   *wrong program* from *wrong timing model* in milliseconds;
2. the **tracer** (`repro.obs.trace`) shows each thread's lifecycle —
   when it was created, became ready, yielded for DMA and resumed;
3. **scheduler snapshots** (`repro.core.scheduler`) expose frame
   occupancy and ready queues, the first thing to look at when a fork
   storm wedges.

Run:  python examples/debugging_tour.py
"""

from repro import Machine, prefetch_transform, run_functional
from repro.core.scheduler import SchedulerSnapshot
from repro.obs.trace import Tracer
from repro.testing import small_config
from repro.workloads import matmul


def main() -> None:
    workload = matmul.build(n=8, threads=4)
    activity = prefetch_transform(workload.activity)

    print("1. Functional check (no timing): does the program compute C?")
    golden = run_functional(activity)
    ok = golden.read_global("C") == workload.oracle["C"]
    print(f"   golden model: {golden.threads_run} threads, "
          f"{golden.instructions} instructions, result "
          f"{'matches' if ok else 'DIVERGES FROM'} the oracle")
    print()

    print("2. Traced simulation: one worker's life, cycle by cycle")
    machine = Machine(small_config(num_spes=2).with_latency(150))
    tracer = Tracer(kinds={
        "thread-created", "thread-ready", "dispatch", "yield-dma",
        "dma-command", "dma-tag-done", "thread-done",
    })
    machine.attach_tracer(tracer)
    machine.load(activity)
    machine.run()
    workload.verify(machine)

    # Pick the first thread that yielded for DMA and print its story.
    yielders = tracer.of_kind("yield-dma")
    tid = yielders[0].fields["tid"]
    print(f"   thread {tid}:")
    for event in tracer.of_thread(tid):
        print(f"     {event}")
    print()

    print("3. Scheduler snapshot after completion (everything drained):")
    snap = SchedulerSnapshot.capture(machine)
    print("   " + snap.format().replace("\n", "\n   "))
    problems = snap.check_invariants()
    print(f"   invariants: {'all hold' if not problems else problems}")


if __name__ == "__main__":
    main()
