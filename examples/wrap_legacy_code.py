#!/usr/bin/env python
"""Wrapping legacy code with the generic wrapper service (Section 3.6).

Shows the full life of an executable descriptor:

1. write (or load) the Figure 8-style XML describing a command-line
   tool — its executable, sandboxed files, inputs and outputs,
2. wrap it into a grid-submitting service with a Python stand-in for
   the binary,
3. invoke it and inspect the dynamically composed command line,
4. group two wrapped services into a single-job virtual service and
   compare the command lines and overhead costs.

Run:  python examples/wrap_legacy_code.py
"""

from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.transfer import NetworkModel
from repro.services import CompositeService, GenericWrapperService, GridData
from repro.services.descriptor import descriptor_from_xml, descriptor_to_xml
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE

SMOOTH_XML = """
<description>
  <executable name="smooth">
    <access type="URL"><path value="http://tools.example.org"/></access>
    <value value="smooth"/>
    <input name="image" option="-i"><access type="GFN"/></input>
    <input name="sigma" option="-s"/>
    <output name="smoothed" option="-o"><access type="GFN"/></output>
    <sandbox name="kernel-lib">
      <access type="URL"><path value="http://tools.example.org"/></access>
      <value value="libkernels.so"/>
    </sandbox>
  </executable>
</description>
"""

SEGMENT_XML = """
<description>
  <executable name="segment">
    <access type="URL"><path value="http://tools.example.org"/></access>
    <value value="segment"/>
    <input name="image" option="-i"><access type="GFN"/></input>
    <output name="mask" option="-m"><access type="GFN"/></output>
  </executable>
</description>
"""


def build_grid(engine):
    ce = ComputingElement(engine, "ce0", "site0", infinite=True)
    se = StorageElement("se0", "site0")
    return Grid(
        engine,
        RandomStreams(seed=0),
        sites=[Site("site0", [ce], se)],
        overhead=OverheadModel.from_values(submission=30.0, brokering=60.0, queue_extra=210.0),
        network=NetworkModel(),
    )


def note_command_lines(grid):
    """The command line of every job *grid* is submitted from now on.

    A finished job's row in ``grid.records`` keeps its numbers (times,
    CE, attempts), not its description, so the lines are noted at
    submission.
    """
    lines = []
    submit = grid.submit

    def submit_and_note(description):
        lines.append(description.command_line)
        return submit(description)

    grid.submit = submit_and_note
    return lines


def main() -> None:
    engine = Engine()
    grid = build_grid(engine)
    command_lines = note_command_lines(grid)

    smooth_desc = descriptor_from_xml(SMOOTH_XML)
    segment_desc = descriptor_from_xml(SEGMENT_XML)
    print("parsed descriptor:", smooth_desc.name,
          "inputs", smooth_desc.input_ports, "outputs", smooth_desc.output_ports)
    print("round-trips:", descriptor_from_xml(descriptor_to_xml(smooth_desc)) == smooth_desc)

    smooth = GenericWrapperService(
        engine, grid, smooth_desc,
        program=lambda image, sigma: {"smoothed": f"smooth({image}, s={sigma})"},
        compute_time=40.0,
    )
    segment = GenericWrapperService(
        engine, grid, segment_desc,
        program=lambda image: {"mask": f"mask({image})"},
        compute_time=25.0,
    )

    scan = LogicalFile("gfn://scans/patient42.mhd", size=7.8 * MEBIBYTE)
    grid.add_input_file(scan)

    # -- separate invocations: two jobs, two overheads ------------------
    start = engine.now
    out1 = engine.run(until=smooth.invoke({"image": GridData("scan42", scan), "sigma": 2}))
    out2 = engine.run(until=segment.invoke({"image": out1["smoothed"]}))
    separate = engine.now - start
    print("\n--- separate services (two grid jobs) ---")
    for line in command_lines:
        print("  $", line)
    print(f"  result: {out2['mask'].value}")
    print(f"  wall time: {separate:.0f}s (two 300s overheads paid)")

    # -- grouped: one virtual service, one job ---------------------------
    grouped = CompositeService(
        engine, [smooth, segment], internal_links={(1, "image"): (0, "smoothed")}
    )
    start = engine.now
    out3 = engine.run(until=grouped.invoke({"image": GridData("scan42", scan), "sigma": 2}))
    grouped_time = engine.now - start
    print("\n--- grouped virtual service (one grid job) ---")
    print("  $", command_lines[-1])
    print(f"  result: {out3['mask'].value}")
    print(f"  wall time: {grouped_time:.0f}s (one overhead, no intermediate transfer)")
    print(f"\njob grouping saved {separate - grouped_time:.0f}s on this invocation")


if __name__ == "__main__":
    main()
