from hypothesis import settings

# tier-1 runs the same examples every time: drawn from a fixed seed, with no
# example database and no per-example deadline
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
