"""The four project invariant checkers."""

from typing import List

from ..framework import Checker
from .async_hygiene import AsyncHygieneChecker
from .locks import LockDisciplineChecker
from .portability import PlanPortabilityChecker
from .stamps import StampProtocolChecker


def all_checkers() -> List[Checker]:
    return [
        LockDisciplineChecker(),
        PlanPortabilityChecker(),
        StampProtocolChecker(),
        AsyncHygieneChecker(),
    ]
