"""Differential oracle: the single-waiter engine against the list-of-callbacks one.

``repro.sim.engine`` keeps an event's one waiter in a slot, a list only
from the second waiter on, and wakes a process as itself; the reference
(``tests/tools/engine_reference.py``) is the engine it replaced, where
every event owns a callback list and a process waits as its bound
``_resume``.  Hypothesis draws small scenarios — events that time out,
succeed or fail (some pre-defused), processes that wait on one event,
on ``AllOf`` / ``AnyOf`` composites, on each other or on events already
processed, that catch failures and may fail themselves, and plain
callbacks (some defusing) on events and processes — and plays each on
both engines, first up to ``run(until=...)`` when the scenario names a
stop event, then to the end, restarting after every unhandled failure.
The order in which waiters fire, what each receives, what ``run``
returns or raises, and the engine's lifetime counters
(``events_processed`` and ``events_cancelled`` among them) must agree.

Hand mutants of ``repro.sim.engine`` run against this file, all killed:

* the waiters of a multi-waiter event woken in reverse order;
* ``add_waiter`` dropping the second waiter (a list of the first only);
* a single waiter woken twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine as single
from repro.sim.engine import SimulationError
from tests.tools import engine_reference as reference


class Boom(Exception):
    """The failure a scenario injects; its repr names who failed."""


#: an event: how it triggers, when, and whether it is defused up front
events = st.tuples(
    st.sampled_from(("timeout", "succeed", "fail")), st.integers(0, 3), st.booleans()
)
indices = st.integers(0, 7)
#: one thing a process does; event indices wrap around the event count
steps = st.one_of(
    st.tuples(st.just("wait"), indices),
    st.tuples(st.just("all"), st.lists(indices, max_size=3)),
    st.tuples(st.just("any"), st.lists(indices, min_size=1, max_size=3)),
    st.tuples(st.just("sleep"), st.integers(0, 3)),
    st.tuples(st.just("join"), indices),
    st.tuples(st.just("watch"), indices, st.booleans()),
)
#: a process: its steps, and whether it fails once they are done
processes = st.tuples(st.lists(steps, max_size=4), st.booleans())
#: a callback added before the run: on an event or a process, defusing or not
callbacks = st.tuples(st.sampled_from(("event", "process")), indices, st.booleans())
scenarios = st.tuples(
    st.lists(events, min_size=1, max_size=4),
    st.lists(processes, max_size=4),
    st.lists(callbacks, max_size=4),
    st.one_of(st.none(), indices),
)


def play(sim, scenario):
    """Run *scenario* on the engine module *sim*; what happened, engine-neutral."""
    event_specs, process_specs, callback_specs, stop = scenario
    engine = sim.Engine()
    log = []

    def label(value):
        if isinstance(value, sim.Event):
            return value.name
        if isinstance(value, (tuple, list)):
            return type(value)(label(v) for v in value)
        if isinstance(value, BaseException):
            return repr(value)
        return value

    def callback(who, defuse):
        def waiter(event):
            log.append((engine.now, who, event.name, event.ok, label(event.value)))
            if defuse and not event.ok:
                event.defused = True

        return waiter

    base = []
    for i, (kind, at, defused) in enumerate(event_specs):
        name = f"e{i}"
        if kind == "timeout":
            event = engine.timeout(at, value=i, name=name)
        else:
            event = engine.event(name=name)

            def trigger(event=event, kind=kind, at=at, i=i):
                yield engine.timeout(at)
                if kind == "succeed":
                    event.succeed(i)
                else:
                    event.fail(Boom(event.name))

            engine.process(trigger(), name=f"trigger{i}")
        event.defused = defused
        base.append(event)

    def pick(index):
        return base[index % len(base)]

    procs = []

    def body(p, plan, fails):
        for k, step in enumerate(plan):
            op = step[0]
            if op == "wait":
                target = pick(step[1])
            elif op == "all":
                target = engine.all_of([pick(j) for j in step[1]], name=f"p{p}.{k}")
            elif op == "any":
                target = engine.any_of([pick(j) for j in step[1]], name=f"p{p}.{k}")
            elif op == "sleep":
                target = engine.timeout(step[1], name=f"p{p}.{k}")
            elif op == "join":
                if p == 0:
                    continue
                target = procs[step[1] % p]
            else:  # watch: a callback joins the event's waiters mid-run
                target = pick(step[1])
                if not target.triggered:
                    target.add_waiter(callback(f"p{p}.{k}", step[2]))
            try:
                value = yield target
                log.append((engine.now, f"p{p}", k, "ok", label(value)))
            except Boom as exc:
                log.append((engine.now, f"p{p}", k, "failed", label(exc)))
        if fails:
            raise Boom(f"p{p}")
        return p

    for p, (plan, fails) in enumerate(process_specs):
        procs.append(engine.process(body(p, plan, fails), name=f"p{p}"))
    for c, (kind, index, defuse) in enumerate(callback_specs):
        pool = base if kind == "event" else procs
        if pool:
            pool[index % len(pool)].add_waiter(callback(f"c{c}", defuse))

    if stop is not None:
        target = pick(stop)
        try:
            log.append(("until", engine.now, label(engine.run(until=target))))
        except (Boom, SimulationError) as exc:
            log.append(("until raised", engine.now, label(exc)))
    for _ in range(100):
        try:
            engine.run()
            break
        except Boom as exc:
            log.append(("raised", engine.now, label(exc)))
    return log, engine.now, engine.counters()


@settings(max_examples=400, deadline=None)
@given(scenarios)
def test_single_waiter_engine_matches_the_callback_list_engine(scenario):
    assert play(single, scenario) == play(reference, scenario)


def test_waiters_fire_in_the_order_they_were_added():
    order = []
    engine = single.Engine()
    event = engine.event()
    for i in range(3):
        event.add_waiter(lambda _e, i=i: order.append(i))
    event.succeed()
    engine.run()
    assert order == [0, 1, 2]


def test_a_processed_event_takes_no_waiter():
    engine = single.Engine()
    event = engine.event()
    event.succeed()
    engine.run()
    with pytest.raises(SimulationError, match="already processed"):
        event.add_waiter(lambda _e: None)
