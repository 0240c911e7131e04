"""Persistence (database images) and CSV import/export."""

from .csvio import dump_csv, load_csv
from .persist import load_database, save_database

__all__ = ["dump_csv", "load_csv", "load_database", "save_database"]
