"""The input-data-set description language (Section 4.1).

"We developed an XML-based language to be able to describe input data
sets.  This language aims at providing a file format to save and store
the input data set in order to be able to re-execute workflows on the
same data set.  It simply describes each item of the different inputs
of the workflow."

:class:`InputDataSet` maps each workflow *source* name to an ordered
list of :class:`DataItem`.  Items are either plain values or grid files
(GFN + size); file items are registered on the grid by the enactor
before execution starts.

.. code-block:: xml

    <dataset name="bronze-12">
      <input name="floatingImage">
        <item gfn="gfn://images/patient01/t0.mhd" size="8178892"/>
        <item gfn="gfn://images/patient01/t1.mhd" size="8178892"/>
      </input>
      <input name="scale">
        <item value="8"/>
      </input>
    </dataset>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.grid.storage import LogicalFile
from repro.services.base import GridData

__all__ = ["DataItem", "InputDataSet", "dataset_from_xml", "dataset_to_xml", "DataSetError"]


class DataSetError(ValueError):
    """Malformed data-set document or inconsistent data set."""


@dataclass(frozen=True)
class DataItem:
    """One item of one workflow input: a value, a grid file, or both."""

    value: object = None
    gfn: Optional[str] = None
    size: float = 0.0

    def __post_init__(self) -> None:
        if self.value is None and self.gfn is None:
            raise DataSetError("a data item needs a value or a gfn (or both)")
        if self.size < 0:
            raise DataSetError(f"size must be >= 0, got {self.size}")

    def logical_file(self) -> Optional[LogicalFile]:
        """The grid file identity, if any."""
        if self.gfn is None:
            return None
        return LogicalFile(self.gfn, size=self.size)

    def grid_data(self) -> GridData:
        """Convert to the inter-service datum representation."""
        return GridData(value=self.value, file=self.logical_file())


class InputDataSet:
    """Ordered items per workflow source."""

    def __init__(self, name: str = "dataset") -> None:
        self.name = name
        self._inputs: Dict[str, List[DataItem]] = {}

    @classmethod
    def from_values(cls, name: str = "dataset", **inputs: Sequence[object]) -> "InputDataSet":
        """Build from keyword lists of plain values (tests & examples)."""
        dataset = cls(name=name)
        for input_name, values in inputs.items():
            for value in values:
                dataset.add(input_name, DataItem(value=value))
        return dataset

    def add(self, input_name: str, item: DataItem) -> None:
        """Append *item* to the stream of *input_name*."""
        self._inputs.setdefault(input_name, []).append(item)

    def items(self, input_name: str) -> List[DataItem]:
        """The ordered items of one input (empty list if unknown)."""
        return list(self._inputs.get(input_name, []))

    def input_names(self) -> List[str]:
        """All input names, insertion order."""
        return list(self._inputs)

    def size(self, input_name: str) -> int:
        """Number of items on one input."""
        return len(self._inputs.get(input_name, ()))

    def files(self) -> Iterator[LogicalFile]:
        """Every distinct grid file referenced by the data set."""
        seen = set()
        for items in self._inputs.values():
            for item in items:
                file = item.logical_file()
                if file is not None and file.gfn not in seen:
                    seen.add(file.gfn)
                    yield file

    def __len__(self) -> int:
        return sum(len(items) for items in self._inputs.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}[{len(v)}]" for k, v in self._inputs.items())
        return f"<InputDataSet {self.name!r} {inner}>"


def dataset_from_xml(text: str) -> InputDataSet:
    """Parse the XML data-set dialect."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DataSetError(f"not well-formed XML: {exc}") from exc
    if root.tag != "dataset":
        raise DataSetError(f"expected <dataset> root, got <{root.tag}>")
    dataset = InputDataSet(name=root.get("name", "dataset"))
    for input_node in root.findall("input"):
        input_name = input_node.get("name")
        if not input_name:
            raise DataSetError("<input> is missing its 'name' attribute")
        for item_node in input_node.findall("item"):
            gfn = item_node.get("gfn")
            raw_value = item_node.get("value")
            size = float(item_node.get("size", "0"))
            dataset.add(input_name, DataItem(value=raw_value, gfn=gfn, size=size))
    return dataset


def dataset_to_xml(dataset: InputDataSet) -> str:
    """Serialize to the XML dialect (round-trips with the parser)."""
    root = ET.Element("dataset", {"name": dataset.name})
    for input_name in dataset.input_names():
        input_node = ET.SubElement(root, "input", {"name": input_name})
        for item in dataset.items(input_name):
            attrs: Dict[str, str] = {}
            if item.value is not None:
                attrs["value"] = str(item.value)
            if item.gfn is not None:
                attrs["gfn"] = item.gfn
                attrs["size"] = str(item.size)
            ET.SubElement(input_node, "item", attrs)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")
