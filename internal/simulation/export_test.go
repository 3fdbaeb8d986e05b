package simulation

// SmallWorldConfig is the test world's config, for the external tests.
func SmallWorldConfig() Config { return testConfig() }
