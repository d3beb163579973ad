"""Tests for executable descriptors, including the verbatim Figure 8."""

import pytest

from repro.services.descriptor import (
    AccessMethod,
    DescriptorError,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
    descriptor_from_xml,
    descriptor_to_xml,
)

#: the example published in the paper (Figure 8), verbatim structure
FIGURE8_XML = """
<description>
<executable name="CrestLines.pl">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="CrestLines.pl"/>
<input name="floating_image" option="-im1">
<access type="GFN"/>
</input>
<input name="reference_image" option="-im2">
<access type="GFN"/>
</input>
<input name="scale" option="-s"/>
<output name="crest_reference" option="-c1">
<access type="GFN"/>
</output>
<output name="crest_floating" option="-c2">
<access type="GFN"/>
</output>
<sandbox name="convert8bits">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="Convert8bits.pl"/>
</sandbox>
<sandbox name="copy">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="copy"/>
</sandbox>
<sandbox name="cmatch">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="cmatch"/>
</sandbox>
</executable>
</description>
"""


@pytest.fixture
def figure8():
    return descriptor_from_xml(FIGURE8_XML)


class TestFigure8:
    def test_executable_identity(self, figure8):
        assert figure8.name == "CrestLines.pl"
        assert figure8.access == AccessMethod("URL", "http://colors.unice.fr")
        assert figure8.value == "CrestLines.pl"

    def test_three_inputs(self, figure8):
        assert figure8.input_ports == ("floating_image", "reference_image", "scale")

    def test_two_file_inputs_one_parameter(self, figure8):
        # "2 files ... that are already registered on the grid as GFNs
        #  ... and 1 parameter (option -s)"
        files = [s.name for s in figure8.inputs if s.is_file]
        parameters = [s for s in figure8.inputs if not s.is_file]
        assert files == ["floating_image", "reference_image"]
        assert [s.name for s in parameters] == ["scale"]
        assert parameters[0].option == "-s"

    def test_two_outputs_registered_on_grid(self, figure8):
        assert figure8.output_ports == ("crest_reference", "crest_floating")
        assert all(s.access.type == "GFN" for s in figure8.outputs)

    def test_three_sandboxed_files(self, figure8):
        assert [s.value for s in figure8.sandboxes] == ["Convert8bits.pl", "copy", "cmatch"]
        assert all(s.access.type == "URL" for s in figure8.sandboxes)

    def test_round_trip(self, figure8):
        assert descriptor_from_xml(descriptor_to_xml(figure8)) == figure8


class TestCommandLine:
    def test_dynamic_composition(self, figure8):
        bindings = {
            "floating_image": "gfn://img/f0",
            "reference_image": "gfn://img/r0",
            "scale": "8",
            "crest_reference": "gfn://out/c1",
            "crest_floating": "gfn://out/c2",
        }
        line = figure8.command_line(bindings)
        assert line == (
            "CrestLines.pl -im1 gfn://img/f0 -im2 gfn://img/r0 -s 8 "
            "-c1 gfn://out/c1 -c2 gfn://out/c2"
        )

    def test_missing_binding_rejected(self, figure8):
        with pytest.raises(DescriptorError, match="unbound"):
            figure8.command_line({"floating_image": "x"})

    def test_optionless_input_is_positional(self):
        desc = ExecutableDescriptor(
            name="tool",
            access=AccessMethod("local"),
            value="tool",
            inputs=(InputSpec("arg"),),
        )
        assert desc.command_line({"arg": "hello"}) == "tool hello"


class TestValidation:
    def test_unknown_access_type_rejected(self):
        with pytest.raises(DescriptorError):
            AccessMethod("FTP")

    def test_duplicate_port_names_rejected(self):
        with pytest.raises(DescriptorError, match="duplicate"):
            ExecutableDescriptor(
                name="t",
                access=AccessMethod("local"),
                value="t",
                inputs=(InputSpec("x"),),
                outputs=(OutputSpec("x"),),
            )

    def test_parameter_is_not_file(self):
        assert not InputSpec("scale", "-s").is_file
        assert InputSpec("img", "-i", AccessMethod("GFN")).is_file


class TestXmlErrors:
    def test_malformed_xml(self):
        with pytest.raises(DescriptorError, match="well-formed"):
            descriptor_from_xml("<description><unclosed>")

    def test_wrong_root(self):
        with pytest.raises(DescriptorError, match="root"):
            descriptor_from_xml("<other/>")

    def test_missing_executable(self):
        with pytest.raises(DescriptorError, match="executable"):
            descriptor_from_xml("<description/>")

    def test_missing_executable_name(self):
        with pytest.raises(DescriptorError, match="name"):
            descriptor_from_xml("<description><executable><access type='local'/></executable></description>")

    def test_missing_executable_access(self):
        with pytest.raises(DescriptorError, match="access"):
            descriptor_from_xml("<description><executable name='t'/></description>")

    def test_input_without_name(self):
        xml = (
            "<description><executable name='t'><access type='local'/>"
            "<input option='-i'/></executable></description>"
        )
        with pytest.raises(DescriptorError, match="input"):
            descriptor_from_xml(xml)

    def test_sandbox_without_value(self):
        xml = (
            "<description><executable name='t'><access type='local'/>"
            "<sandbox name='s'><access type='URL'><path value='http://h'/></access>"
            "</sandbox></executable></description>"
        )
        with pytest.raises(DescriptorError, match="value"):
            descriptor_from_xml(xml)
