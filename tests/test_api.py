"""Public API surface and exception hierarchy."""

import pytest

import repro
from repro import errors


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "SimulationError",
            "ConfigurationError",
            "GeometryError",
            "MobilityError",
            "RadioError",
            "MacError",
            "ProtocolError",
            "AnalysisError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.ProtocolError("boom")


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_classes_exported(self):
        assert repro.CarqConfig is not None
        assert repro.VehicleNode is not None
        assert repro.Simulator is not None

    def test_paper_reference_numbers(self):
        # Table 1 percentages from the paper.
        from repro.mac.frames import NodeId

        assert repro.PAPER_TABLE1[NodeId(1)] == (23.4, 10.5)
        assert repro.PAPER_TABLE1[NodeId(2)] == (26.9, 17.3)
        assert repro.PAPER_TABLE1[NodeId(3)] == (28.6, 15.7)


class TestSubpackageExports:
    def test_analysis_all_resolves(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert getattr(analysis, name) is not None

    def test_radio_all_resolves(self):
        import repro.radio as radio

        for name in radio.__all__:
            assert getattr(radio, name) is not None

    def test_mac_all_resolves(self):
        import repro.mac as mac

        for name in mac.__all__:
            assert getattr(mac, name) is not None

    def test_mobility_all_resolves(self):
        import repro.mobility as mobility

        for name in mobility.__all__:
            assert getattr(mobility, name) is not None

    def test_sim_all_resolves(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert getattr(sim, name) is not None

    def test_scenarios_all_resolves(self):
        import repro.scenarios as scenarios

        for name in scenarios.__all__:
            assert getattr(scenarios, name) is not None

    def test_campaign_all_resolves(self):
        import repro.campaign as campaign

        for name in campaign.__all__:
            assert getattr(campaign, name) is not None

    def test_core_all_resolves(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_baselines_all_resolves(self):
        import repro.baselines as baselines

        for name in baselines.__all__:
            assert getattr(baselines, name) is not None
