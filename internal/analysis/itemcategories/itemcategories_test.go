package itemcategories_test

import (
	"testing"

	"pphcr/internal/analysis/analysistest"
	"pphcr/internal/analysis/itemcategories"
)

func TestItemCategories(t *testing.T) {
	analysistest.Run(t, "testdata", itemcategories.Analyzer, "content", "reader")
}
