"""Fixture: every violation below is covered by a suppression directive.

Exercises all three forms: file-level, trailing line-level, and a
standalone comment covering the next code line.
"""
# repro-lint: hot
# repro-lint: disable-file=HOT002 -- fixture for the file-level form.


class Kind:
    GETS = 1


class Controller:
    def handle(self, items):
        key = Kind.GETS.value
        callback = lambda e: e  # repro-lint: disable=HOT001 -- trailing form.

        # repro-lint: disable=HOT001 -- standalone form covers next line.
        def nested():
            return key

        return callback, nested
