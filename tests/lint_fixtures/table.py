"""Seeded stamp-protocol violations: the basename makes this file a
consecrated mutation module, so the public entry points below must bump
the stamp — ``truncate`` deliberately does not — and, since the class
keeps a mutation journal, journal what they touched — ``grow``
deliberately does not."""


class MiniTable:
    def __init__(self):
        self._nrows = 0
        self._deleted = []
        self._mutation_count = 0
        self._journal = (0, ())

    def truncate(self):
        self._nrows = 0
        self._deleted = []

    def grow(self, rows):
        self._nrows += rows
        self._mutation_count += 1

    def reset(self):
        self._mutation_count += 1
        self._barrier()

    def _barrier(self):
        self._journal = (self._mutation_count, ())
