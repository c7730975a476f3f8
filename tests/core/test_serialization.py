"""Design serialization round-trips."""

import json

import pytest

from repro import api
from repro.core import Design, verify_design

#: one stock binding per problem family
FAMILY_BINDINGS = [("dp", {"n": 8}, "fig2"),
                   ("conv-backward", {"n": 8, "s": 3}, "linear"),
                   ("conv-forward", {"n": 8, "s": 3}, "linear"),
                   ("matmul", {"n": 4}, "mesh")]


class TestRoundTrip:
    def test_json_round_trip(self, dp_design_fig2, dp_host_inputs):
        payload = json.loads(json.dumps(dp_design_fig2.to_dict()))
        rebuilt = Design.from_dict(payload, dp_design_fig2.system)
        assert rebuilt.schedules == dp_design_fig2.schedules
        assert rebuilt.space_maps == dp_design_fig2.space_maps
        assert rebuilt.cell_count == dp_design_fig2.cell_count
        assert rebuilt.interconnect.columns == \
            dp_design_fig2.interconnect.columns
        # A rebuilt design still verifies (constraints recompute from links).
        report = verify_design(rebuilt, dp_host_inputs)
        assert report.ok, report.failures

    def test_wrong_system_rejected(self, dp_design_fig2, conv_backward_sys):
        payload = dp_design_fig2.to_dict()
        with pytest.raises(ValueError):
            Design.from_dict(payload, conv_backward_sys)

    def test_payload_is_plain_data(self, dp_design_fig1):
        payload = dp_design_fig1.to_dict()
        text = json.dumps(payload)   # must not raise
        assert "m1" in text and "fig1" in text


class TestRebuiltDesign:
    @pytest.mark.parametrize("problem,params,interconnect", FAMILY_BINDINGS,
                             ids=[b[0] for b in FAMILY_BINDINGS])
    def test_round_trip_is_equal(self, problem, params, interconnect):
        system = api.PROBLEM_BUILDERS[problem][0]()
        design = api.synthesize(system, params,
                                api.resolve_interconnect(interconnect))
        rebuilt = Design.from_dict(
            json.loads(json.dumps(design.to_dict())), system)
        assert rebuilt == design

    def test_global_gap_violation_is_reported(self, dp_design_fig2):
        """A payload whose schedule breaks a link's timing gap fails the
        symbolic global-gap check, not only the machine's causality."""
        payload = dp_design_fig2.to_dict()
        first = next(iter(payload["schedules"]))
        payload["schedules"][first]["offset"] += 50
        rebuilt = Design.from_dict(payload, dp_design_fig2.system)
        report = verify_design(
            rebuilt, api.input_factory("dp", dp_design_fig2.params),
            seeds=[1])
        assert not report.global_gaps_ok
        assert any(f.startswith("global constraint")
                   for f in report.failures)
