"""Exception taxonomy shared across modules (drives CLI exit codes)."""
from __future__ import annotations


class ScenarioError(Exception):
    """Malformed or inconsistent scenario configuration (CLI exit code 2)."""


class ModulationError(Exception):
    """No compatible modulation exists for the requested bandwidth split (exit code 2)."""
