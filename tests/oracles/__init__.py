"""Reference implementations the test suites compare production code against."""
