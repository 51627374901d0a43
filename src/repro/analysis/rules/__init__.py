"""The rule registry: one instance of every shipped rule.

Order here is presentation order for ``repro lint --list-rules``; the
engine sorts findings by location, so registry order never changes
output diffs.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.core import Rule
from repro.analysis.rules.certs import CertDisciplineRule
from repro.analysis.rules.defaults import NoRestatedDefaultsRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.precision import Float64SoundnessRule
from repro.analysis.rules.storage import StoreDisciplineRule
from repro.analysis.rules.taxonomy import NoSwallowedTaxonomyRule
from repro.analysis.rules.wire import WireDisciplineRule, WireScalarsRule

__all__ = [
    "ALL_RULES",
    "CertDisciplineRule",
    "DeterminismRule",
    "Float64SoundnessRule",
    "LockDisciplineRule",
    "NoRestatedDefaultsRule",
    "NoSwallowedTaxonomyRule",
    "StoreDisciplineRule",
    "WireDisciplineRule",
    "WireScalarsRule",
]

ALL_RULES: Tuple[Rule, ...] = (
    NoRestatedDefaultsRule(),
    WireDisciplineRule(),
    WireScalarsRule(),
    DeterminismRule(),
    LockDisciplineRule(),
    Float64SoundnessRule(),
    NoSwallowedTaxonomyRule(),
    StoreDisciplineRule(),
    CertDisciplineRule(),
)
