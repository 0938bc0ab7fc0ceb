// Package fieldrule is the fixture TestFieldRuleClauses loads: one field
// for each way the field rule in reach_test.go must fail, and one that
// passes both of its clauses.
package fieldrule

// Config holds the three fields.
type Config struct {
	Filled    int // set only by its own default fill
	WriteOnly int // set, never read
	Used      int // set and read
}

// New fills Filled's default and sets WriteOnly.
func New(c Config) Config {
	if c.Filled == 0 {
		c.Filled = 5
	}
	c.WriteOnly = 1
	return c
}

// Total reads Filled and Used.
func Total() int {
	c := New(Config{Used: 2})
	return c.Filled + c.Used
}
