from hypothesis import settings

# A larger budget for the fuzz tests, whose tier-1 runs take the default
# profile's: pytest tests/test_csv_fuzz.py --hypothesis-profile fuzz
settings.register_profile("fuzz", max_examples=300)
