package godirective

import (
	"os"
	"path/filepath"
	"testing"
)

func TestInDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), Dir)
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}
