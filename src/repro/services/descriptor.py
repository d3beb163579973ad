"""Executable descriptors: the generic wrapper's XML input (Figure 8).

The descriptor "has to be complete enough to allow dynamic composition
of the command line from the list of parameters at the service
invocation time and to access the executable and input data files"
(Section 3.6).  It contains exactly the five ingredients the paper
enumerates:

1. name and access method of the executable,
2. name and access method of sandboxed files (libraries, scripts),
3. access method and command-line option of the input data,
4. command-line option of input parameters (no access method),
5. access method and command-line option of the output data.

The XML dialect below round-trips the paper's published example
(``CrestLines.pl``); see ``tests/services/test_descriptor.py`` which
parses the verbatim Figure 8 document.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "AccessMethod",
    "InputSpec",
    "OutputSpec",
    "SandboxSpec",
    "ExecutableDescriptor",
    "DescriptorError",
    "descriptor_from_xml",
    "descriptor_to_xml",
]

#: access methods the paper's implementation supports (Section 3.6 item 1)
ACCESS_TYPES = ("URL", "GFN", "local")


class DescriptorError(ValueError):
    """Malformed descriptor document or inconsistent descriptor model."""


@dataclass(frozen=True)
class AccessMethod:
    """How a file is reached: a URL server path, a GFN, or a local path."""

    type: str
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.type not in ACCESS_TYPES:
            raise DescriptorError(
                f"unknown access type {self.type!r}; expected one of {ACCESS_TYPES}"
            )


@dataclass(frozen=True)
class InputSpec:
    """An input on the command line.

    With an ``access`` method it is an input *data file* whose actual
    name is bound at invocation time (the service-based dynamic-data
    principle); without one it is a plain *parameter* (Section 3.6
    item 4).
    """

    name: str
    option: Optional[str] = None
    access: Optional[AccessMethod] = None

    @property
    def is_file(self) -> bool:
        """True for data files, False for bare parameters."""
        return self.access is not None


@dataclass(frozen=True)
class OutputSpec:
    """An output file: where to register it and its command-line option."""

    name: str
    option: Optional[str] = None
    access: AccessMethod = field(default_factory=lambda: AccessMethod("GFN"))


@dataclass(frozen=True)
class SandboxSpec:
    """An auxiliary file needed at run time but absent from the command line."""

    name: str
    access: AccessMethod
    value: str


@dataclass(frozen=True)
class ExecutableDescriptor:
    """The full description of one wrappable legacy code."""

    name: str
    access: AccessMethod
    value: str
    inputs: Tuple[InputSpec, ...] = ()
    outputs: Tuple[OutputSpec, ...] = ()
    sandboxes: Tuple[SandboxSpec, ...] = ()

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.inputs] + [spec.name for spec in self.outputs]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise DescriptorError(f"duplicate port names in descriptor: {sorted(duplicates)}")

    # -- convenient views --------------------------------------------------
    @property
    def input_ports(self) -> Tuple[str, ...]:
        """All input names (files and parameters), declaration order."""
        return tuple(spec.name for spec in self.inputs)

    @property
    def output_ports(self) -> Tuple[str, ...]:
        """All output names, declaration order."""
        return tuple(spec.name for spec in self.outputs)

    def command_line(self, bindings: Dict[str, str]) -> str:
        """Compose the invocation command line (Section 3.6).

        *bindings* maps every input and output name to the token that
        should appear on the command line (a GFN, a local path, or a
        parameter value).  This is the dynamic composition that
        distinguishes the descriptor from static task-based job
        description languages.
        """
        missing = {s.name for s in self.inputs} | {s.name for s in self.outputs}
        missing -= set(bindings)
        if missing:
            raise DescriptorError(
                f"{self.name}: unbound command-line names {sorted(missing)}"
            )
        parts = [self.value]
        for spec in self.inputs:
            token = str(bindings[spec.name])
            if spec.option:
                parts.append(f"{spec.option} {token}")
            else:
                parts.append(token)
        for spec in self.outputs:
            token = str(bindings[spec.name])
            if spec.option:
                parts.append(f"{spec.option} {token}")
            else:
                parts.append(token)
        return " ".join(parts)


# -- XML I/O ---------------------------------------------------------------


def _parse_access(parent: ET.Element, *, required: bool) -> Optional[AccessMethod]:
    node = parent.find("access")
    if node is None:
        if required:
            raise DescriptorError(f"<{parent.tag}> is missing its <access> element")
        return None
    type_ = node.get("type")
    if type_ is None:
        raise DescriptorError("<access> is missing its 'type' attribute")
    path_node = node.find("path")
    path = path_node.get("value") if path_node is not None else None
    return AccessMethod(type=type_, path=path)


def _parse_value(parent: ET.Element) -> Optional[str]:
    node = parent.find("value")
    return node.get("value") if node is not None else None


def descriptor_from_xml(text: str) -> ExecutableDescriptor:
    """Parse a Figure 8-style descriptor document."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DescriptorError(f"not well-formed XML: {exc}") from exc
    if root.tag != "description":
        raise DescriptorError(f"expected <description> root, got <{root.tag}>")
    executable = root.find("executable")
    if executable is None:
        raise DescriptorError("missing <executable> element")
    name = executable.get("name")
    if not name:
        raise DescriptorError("<executable> is missing its 'name' attribute")
    access = _parse_access(executable, required=True)
    value = _parse_value(executable) or name

    inputs = []
    for node in executable.findall("input"):
        input_name = node.get("name")
        if not input_name:
            raise DescriptorError("<input> is missing its 'name' attribute")
        inputs.append(
            InputSpec(
                name=input_name,
                option=node.get("option"),
                access=_parse_access(node, required=False),
            )
        )
    outputs = []
    for node in executable.findall("output"):
        output_name = node.get("name")
        if not output_name:
            raise DescriptorError("<output> is missing its 'name' attribute")
        out_access = _parse_access(node, required=False) or AccessMethod("GFN")
        outputs.append(
            OutputSpec(name=output_name, option=node.get("option"), access=out_access)
        )
    sandboxes = []
    for node in executable.findall("sandbox"):
        sandbox_name = node.get("name")
        if not sandbox_name:
            raise DescriptorError("<sandbox> is missing its 'name' attribute")
        sandbox_access = _parse_access(node, required=True)
        sandbox_value = _parse_value(node)
        if sandbox_value is None:
            raise DescriptorError(f"sandbox {sandbox_name!r} is missing its <value>")
        sandboxes.append(
            SandboxSpec(name=sandbox_name, access=sandbox_access, value=sandbox_value)
        )
    return ExecutableDescriptor(
        name=name,
        access=access,
        value=value,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        sandboxes=tuple(sandboxes),
    )


def _access_to_xml(parent: ET.Element, access: AccessMethod) -> None:
    node = ET.SubElement(parent, "access", {"type": access.type})
    if access.path is not None:
        ET.SubElement(node, "path", {"value": access.path})


def descriptor_to_xml(descriptor: ExecutableDescriptor) -> str:
    """Serialize back to the Figure 8 dialect (round-trips with the parser)."""
    root = ET.Element("description")
    executable = ET.SubElement(root, "executable", {"name": descriptor.name})
    _access_to_xml(executable, descriptor.access)
    ET.SubElement(executable, "value", {"value": descriptor.value})
    for spec in descriptor.inputs:
        attrs = {"name": spec.name}
        if spec.option:
            attrs["option"] = spec.option
        node = ET.SubElement(executable, "input", attrs)
        if spec.access is not None:
            _access_to_xml(node, spec.access)
    for spec in descriptor.outputs:
        attrs = {"name": spec.name}
        if spec.option:
            attrs["option"] = spec.option
        node = ET.SubElement(executable, "output", attrs)
        _access_to_xml(node, spec.access)
    for sandbox in descriptor.sandboxes:
        node = ET.SubElement(executable, "sandbox", {"name": sandbox.name})
        _access_to_xml(node, sandbox.access)
        ET.SubElement(node, "value", {"value": sandbox.value})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")
