package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Config is the measurement-suite configuration file (§3.1: "Clients ...
// provide a list of DoH resolvers they wish to perform measurements
// with"). Flags given on the command line override file values.
type Config struct {
	// Resolvers lists hostnames from the built-in population, full
	// https:// URLs, or the shortcuts "all"/"mainstream".
	Resolvers []string `json:"resolvers"`
	// Domains to query each round.
	Domains []string `json:"domains"`
	// Vantage point name (sim mode).
	Vantage string `json:"vantage"`
	// Mode is "sim" or "live".
	Mode string `json:"mode"`
	// Rounds of measurement.
	Rounds int `json:"rounds"`
	// Interval between rounds, as a Go duration string ("8h", "90m").
	Interval string `json:"interval"`
	// Seed for simulated campaigns.
	Seed uint64 `json:"seed"`
	// Output is the JSON Lines result path.
	Output string `json:"output"`
}

// LoadConfig reads and validates a config file.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading config: %w", err)
	}
	var c Config
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("parsing config %s: %w", path, err)
	}
	if c.Interval != "" {
		if _, err := time.ParseDuration(c.Interval); err != nil {
			return nil, fmt.Errorf("config interval %q: %w", c.Interval, err)
		}
	}
	if c.Mode != "" && c.Mode != "sim" && c.Mode != "live" {
		return nil, fmt.Errorf("config mode %q: want sim or live", c.Mode)
	}
	if c.Rounds < 0 {
		return nil, fmt.Errorf("config rounds %d: must be non-negative", c.Rounds)
	}
	return &c, nil
}

// apply folds config values into flag-value destinations that are still
// at their defaults (explicit flags win). set reports which flags the
// user passed; apply marks each one it fills as set too, so the config
// form of a run behaves as its flag form.
func (c *Config) apply(set map[string]bool, resolvers, domains, vantage, mode, output *string,
	rounds *int, interval *time.Duration, seed *uint64) {
	fill := func(flag string, given bool) bool {
		if !given || set[flag] {
			return false
		}
		set[flag] = true
		return true
	}
	if fill("resolvers", len(c.Resolvers) > 0) {
		*resolvers = strings.Join(c.Resolvers, ",")
	}
	if fill("domains", len(c.Domains) > 0) {
		*domains = strings.Join(c.Domains, ",")
	}
	if fill("vantage", c.Vantage != "") {
		*vantage = c.Vantage
	}
	if fill("mode", c.Mode != "") {
		*mode = c.Mode
	}
	if fill("o", c.Output != "") {
		*output = c.Output
	}
	if fill("rounds", c.Rounds > 0) {
		*rounds = c.Rounds
	}
	if fill("interval", c.Interval != "") {
		*interval, _ = time.ParseDuration(c.Interval) // validated by LoadConfig
	}
	if fill("seed", c.Seed != 0) {
		*seed = c.Seed
	}
}
