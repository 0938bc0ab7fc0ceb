package stats_test

import (
	"fmt"

	"encdns/internal/stats"
	"encdns/internal/testutil"
)

// ExampleSummarize computes the five-number summary behind the paper's
// boxplot figures.
func ExampleSummarize() {
	samples := []float64{18, 20, 21, 22, 25, 30, 120} // one slow outlier
	b, _ := stats.Summarize(samples)
	fmt.Printf("median %.0f, IQR %.1f, outliers %v\n", b.Q2, b.IQR(), b.Outliers)
	// Output: median 22, IQR 7.0, outliers [120]
}

// ExampleRankSum decides a winner claim the way §4 does, but with a
// rank-sum significance test instead of eyeballing medians: the test
// suites' testutil.RankSum, which checks the §4 winners.
func ExampleRankSum() {
	fast := []float64{18, 19, 20, 21, 22, 19, 20, 21, 18, 20}
	slow := []float64{30, 31, 29, 33, 32, 30, 31, 34, 29, 30}
	_, p := testutil.RankSum(fast, slow)
	fmt.Println(p < 0.05 && stats.Median(fast) < stats.Median(slow))
	// Output: true
}

// ExampleMedian is the paper's headline statistic.
func ExampleMedian() {
	fmt.Println(stats.Median([]float64{59, 290, 29, 240, 39}))
	// Output: 59
}
