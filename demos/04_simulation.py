"""Executing the task under different behavior profiles.

The simulator walks each agent through its petals, starting actions as
soon as their handoffs allow, and samples durations per the agent's
profile. The same seed always reproduces the same trace.
"""
from madtn import (
    BehaviorProfile,
    DurationMode,
    load_packaged_example,
    simulate,
    validate_trace,
)

daisy = load_packaged_example().daisy


def show(title, trace):
    print(f"\n{title}: makespan {trace.makespan:g}s, "
          f"{'feasible' if trace.feasible else 'INFEASIBLE'}")
    for event in trace.events:
        print(f"  {event.start:6.2f} .. {event.end:6.2f}  "
              f"[{event.agent}] {event.petal}: {event.action}")


# The default profile is fully punctual: every action takes its lower
# bound and starts the instant it can. This reproduces the earliest
# schedule of demo 02 exactly.
show("punctual", simulate(daisy))

# Realistic durations: uniform draws within each action's bounds, plus up
# to half a second of hesitation before starting anything.
sloppy = BehaviorProfile(duration_mode=DurationMode.UNIFORM, reaction_delay=0.5)
trace = simulate(daisy, profiles={"human": sloppy, "robot": sloppy}, seed=11)
show("uniform durations, hesitant start", trace)

again = simulate(daisy, profiles={"human": sloppy, "robot": sloppy}, seed=11)
print("\nsame seed, same trace:", trace == again)

# An anticipatory human jumps the gun on handoffs, starting up to two
# seconds before the incoming work is actually done. The trace is then
# infeasible on purpose, and validation names the broken constraints.
keen = BehaviorProfile(anticipation_probability=1.0, anticipation_offset=2.0)
trace = simulate(daisy, profiles={"human": keen}, seed=11)
show("anticipating human", trace)
print("\nviolated constraints:")
for constraint in validate_trace(daisy, trace):
    print(f"  {daisy.vertex_path(constraint.source)} -> "
          f"{daisy.vertex_path(constraint.target)} "
          f"needed [{constraint.lower:g}, ...)")
