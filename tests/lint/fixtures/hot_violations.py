"""Fixture: hot-path hygiene violations where marked."""
# repro-lint: hot


class Kind:
    GETS = 1


class Controller:
    def handle(self, items):
        key = Kind.GETS.value  # expect: HOT002
        callback = lambda event: event  # expect: HOT001

        def nested():  # expect: HOT001
            return key

        return callback, nested
