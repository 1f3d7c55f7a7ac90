package b

import (
	"testing"

	"fixture/internal/a"
)

func TestUsedByTest(t *testing.T) {
	if a.UsedByTestOfB() != 2 {
		t.Fatal("UsedByTestOfB")
	}
}
