package report

import (
	"bytes"
	"strings"
	"testing"

	"netloc/internal/comm"
)

func heatMatrix(t *testing.T) *comm.Matrix {
	t.Helper()
	b, err := comm.NewBuilder(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Add(0, 1, 1000000)
	_ = b.Add(1, 0, 1000000)
	_ = b.Add(3, 7, 10)
	return b.Matrix()
}

func TestHeatmapASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := HeatmapASCII(&buf, heatMatrix(t), 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // header + 8 rows (some rows are all blank)
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Heaviest pair renders with the top shade, light pair with a weaker
	// one, empty cells with spaces.
	if !strings.ContainsRune(lines[1], '@') {
		t.Errorf("heavy cell not shaded '@': %q", lines[1])
	}
	if strings.ContainsRune(lines[5], '@') {
		t.Errorf("light-traffic row shaded too strongly: %q", lines[5])
	}
}

func TestHeatmapASCIIDownsamples(t *testing.T) {
	b, err := comm.NewBuilder(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		_ = b.Add(i, i+1, 1000)
	}
	var buf bytes.Buffer
	if err := HeatmapASCII(&buf, b.Matrix(), 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("downsampled lines = %d", len(lines))
	}
	if len(lines[1]) != 10 {
		t.Fatalf("row width = %d, want 10", len(lines[1]))
	}
}

func TestHeatmapASCIIEmptyMatrix(t *testing.T) {
	b, err := comm.NewBuilder(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := HeatmapASCII(&buf, b.Matrix(), 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no traffic") {
		t.Errorf("empty matrix output: %q", buf.String())
	}
}

func TestHeatmapASCIIDefaultCells(t *testing.T) {
	var buf bytes.Buffer
	if err := HeatmapASCII(&buf, heatMatrix(t), 0); err != nil {
		t.Fatal(err)
	}
	// 8-rank matrix stays at 8 cells even with the 64-cell default.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 9 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestHeatmapPGM(t *testing.T) {
	var buf bytes.Buffer
	if err := HeatmapPGM(&buf, heatMatrix(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n8 8\n255\n")) {
		t.Fatalf("PGM header wrong: %q", out[:12])
	}
	pixels := out[len("P5\n8 8\n255\n"):]
	if len(pixels) != 64 {
		t.Fatalf("pixels = %d, want 64", len(pixels))
	}
	// Pixel (0,1) carries the heavy pair; (3,7) the light one; (0,0) empty.
	if pixels[0*8+1] != 255 {
		t.Errorf("heavy pixel = %d, want 255", pixels[0*8+1])
	}
	if pixels[3*8+7] == 0 || pixels[3*8+7] >= pixels[0*8+1] {
		t.Errorf("light pixel = %d", pixels[3*8+7])
	}
	if pixels[0] != 0 {
		t.Errorf("empty pixel = %d, want 0", pixels[0])
	}
}

func TestHeatmapPGMEmpty(t *testing.T) {
	b, _ := comm.NewBuilder(2, 0)
	var buf bytes.Buffer
	if err := HeatmapPGM(&buf, b.Matrix()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len("P5\n2 2\n255\n")+4 {
		t.Fatalf("size = %d", buf.Len())
	}
}
