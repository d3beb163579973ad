"""Tests for the input-data-set language."""

import pytest

from repro.workflow.datasets import (
    DataItem,
    DataSetError,
    InputDataSet,
    dataset_from_xml,
    dataset_to_xml,
)

DOCUMENT = """
<dataset name="bronze-2">
  <input name="floatingImage">
    <item gfn="gfn://images/p0/t0.mhd" size="8178892"/>
    <item gfn="gfn://images/p0/t1.mhd" size="8178892"/>
  </input>
  <input name="scale">
    <item value="8"/>
    <item value="8"/>
  </input>
</dataset>
"""


class TestDataItem:
    def test_needs_value_or_gfn(self):
        with pytest.raises(DataSetError):
            DataItem()

    def test_file_item(self):
        item = DataItem(gfn="gfn://a", size=100)
        assert item.logical_file().size == 100
        assert item.grid_data().gfn == "gfn://a"

    def test_value_item(self):
        item = DataItem(value=8)
        assert item.logical_file() is None
        assert item.grid_data().value == 8

    def test_negative_size_rejected(self):
        with pytest.raises(DataSetError):
            DataItem(gfn="gfn://a", size=-1)


class TestInputDataSet:
    def test_from_values(self):
        ds = InputDataSet.from_values("d", a=[1, 2, 3], b=["x"])
        assert ds.size("a") == 3
        assert ds.size("b") == 1
        assert ds.size("missing") == 0
        assert len(ds) == 4

    def test_items_returns_copies(self):
        ds = InputDataSet.from_values("d", a=[1])
        items = ds.items("a")
        items.append("tampered")
        assert ds.size("a") == 1

    def test_files_deduplicated(self):
        ds = InputDataSet("d")
        ds.add("a", DataItem(gfn="gfn://same", size=10))
        ds.add("b", DataItem(gfn="gfn://same", size=10))
        ds.add("b", DataItem(gfn="gfn://other", size=20))
        assert sorted(f.gfn for f in ds.files()) == ["gfn://other", "gfn://same"]

    def test_input_names_ordered(self):
        ds = InputDataSet("d")
        ds.add("z", DataItem(value=1))
        ds.add("a", DataItem(value=2))
        assert ds.input_names() == ["z", "a"]


class TestXml:
    def test_parse(self):
        ds = dataset_from_xml(DOCUMENT)
        assert ds.name == "bronze-2"
        assert ds.size("floatingImage") == 2
        assert ds.size("scale") == 2
        item = ds.items("floatingImage")[0]
        assert item.gfn == "gfn://images/p0/t0.mhd"
        assert item.size == 8178892
        assert ds.items("scale")[0].value == "8"

    def test_round_trip(self):
        ds = dataset_from_xml(DOCUMENT)
        again = dataset_from_xml(dataset_to_xml(ds))
        assert again.name == ds.name
        for name in ds.input_names():
            assert [i.gfn for i in again.items(name)] == [i.gfn for i in ds.items(name)]
            assert [i.value for i in again.items(name)] == [i.value for i in ds.items(name)]

    def test_malformed_rejected(self):
        with pytest.raises(DataSetError, match="well-formed"):
            dataset_from_xml("<dataset><broken>")

    def test_wrong_root_rejected(self):
        with pytest.raises(DataSetError, match="root"):
            dataset_from_xml("<other/>")

    def test_input_without_name_rejected(self):
        with pytest.raises(DataSetError):
            dataset_from_xml("<dataset><input><item value='1'/></input></dataset>")
