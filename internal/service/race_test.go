//go:build race

package service

// The race detector slows a job about tenfold; a hundred warm jobs still mix
// in four failures and cross both world pools many times.
func init() { warmJobs = 100 }
