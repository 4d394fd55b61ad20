package stock_test

import (
	"testing"

	"repro/internal/lint/analysis/analysistest"
	"repro/internal/lint/stock"
)

func TestShadow(t *testing.T) {
	analysistest.Run(t, stock.Shadow, "shadow")
}

func TestNilness(t *testing.T) {
	analysistest.Run(t, stock.Nilness, "nilness")
}
