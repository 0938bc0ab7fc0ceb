package stats

import (
	"math"
	"sync"
)

// Counter accumulates streaming summary statistics without retaining
// samples. It is safe for concurrent use.
type Counter struct {
	mu       sync.Mutex
	n        int64
	sum      float64
	sumSq    float64
	min, max float64
}

// Add records one sample; NaNs are ignored.
func (c *Counter) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		c.min, c.max = v, v
	} else {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	c.n++
	c.sum += v
	c.sumSq += v * v
}

// Absorb folds o's aggregates into c, as if every sample offered to o
// had been offered to c. o is read under its own lock and left intact.
func (c *Counter) Absorb(o *Counter) {
	o.mu.Lock()
	n, sum, sumSq, minV, maxV := o.n, o.sum, o.sumSq, o.min, o.max
	o.mu.Unlock()
	if n == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		c.min, c.max = minV, maxV
	} else {
		if minV < c.min {
			c.min = minV
		}
		if maxV > c.max {
			c.max = maxV
		}
	}
	c.n += n
	c.sum += sum
	c.sumSq += sumSq
}

// N returns the number of samples recorded.
func (c *Counter) N() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Mean returns the running mean, NaN when empty.
func (c *Counter) Mean() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return math.NaN()
	}
	return c.sum / float64(c.n)
}

// StdDev returns the running sample standard deviation (n-1), NaN when
// fewer than two samples.
func (c *Counter) StdDev() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 2 {
		return math.NaN()
	}
	mean := c.sum / float64(c.n)
	variance := (c.sumSq - float64(c.n)*mean*mean) / float64(c.n-1)
	if variance < 0 { // numeric guard
		variance = 0
	}
	return math.Sqrt(variance)
}

// Min returns the smallest sample, NaN when empty.
func (c *Counter) Min() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return math.NaN()
	}
	return c.min
}

// Max returns the largest sample, NaN when empty.
func (c *Counter) Max() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return math.NaN()
	}
	return c.max
}
