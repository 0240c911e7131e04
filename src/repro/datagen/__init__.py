"""Seeded synthetic data generators for SSB and a TPC-H subset."""

from .distributions import rng_for, scaled_rows, uniform_keys
from .ssb import (
    MONTH_NAMES,
    NATION_LIST,
    NATIONS,
    REGION_OF_NATION,
    REGIONS,
    city_of,
    generate_ssb,
)
from .tpch import generate_tpch

__all__ = [
    "city_of",
    "generate_ssb",
    "generate_tpch",
    "MONTH_NAMES",
    "NATION_LIST",
    "NATIONS",
    "REGION_OF_NATION",
    "REGIONS",
    "rng_for",
    "scaled_rows",
    "uniform_keys",
]
