package a

import "testing"

func TestOwn(t *testing.T) {
	if ownTestOnly() != 7 || New().onlyTested() != 1 {
		t.Fatal("own test")
	}
}
