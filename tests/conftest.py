from hypothesis import settings

# reproducible property tests: the same examples on every run, no example
# database written to the tree
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("derandomized")
