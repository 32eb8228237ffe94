"""Exception hierarchy: one family, catchable at the root."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.ConfigurationError,
    errors.KnobError,
    errors.PowerBudgetError,
    errors.BatteryError,
    errors.LearningError,
    errors.SchedulingError,
    errors.SimulationError,
]


class TestHierarchy:
    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_catchable_at_the_root(self, exc):
        with pytest.raises(errors.ReproError):
            raise exc("boom")

    def test_repro_error_is_an_exception(self):
        assert issubclass(errors.ReproError, Exception)

    def test_subclasses_are_distinct(self):
        assert len(set(ALL_ERRORS)) == len(ALL_ERRORS)

    def test_library_raises_only_family_errors(self, config):
        """A representative misuse from each subsystem raises in-family."""
        from repro.core.allocator import PowerAllocator
        from repro.esd.battery import LeadAcidBattery
        from repro.server.server import SimulatedServer

        with pytest.raises(errors.ReproError):
            PowerAllocator().allocate({}, 30.0)
        with pytest.raises(errors.ReproError):
            LeadAcidBattery(capacity_j=-5.0)
        with pytest.raises(errors.ReproError):
            SimulatedServer(config).remove("ghost")
