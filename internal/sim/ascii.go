package sim

import (
	"fmt"
	"math"
	"strings"
)

// ASCIIChart renders averaged cumulative routing-cost curves as a
// fixed-size terminal line chart, one symbol per curve: the terminal and
// Markdown rendition of a figure that the experiments command and the
// run-store report (internal/report) embed. CSV output feeds real
// plotting tools.
func ASCIIChart(title string, curves []Curve, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	symbols := []byte("*o+x#@%&$~")
	var maxY float64
	var maxX int
	for _, c := range curves {
		for i := range c.Avg.X {
			if y := c.Avg.Routing[i]; y > maxY {
				maxY = y
			}
			if c.Avg.X[i] > maxX {
				maxX = c.Avg.X[i]
			}
		}
	}
	if maxY == 0 || maxX == 0 {
		return title + "\n(no data)\n"
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range curves {
		sym := symbols[ci%len(symbols)]
		for i := range c.Avg.X {
			x := int(math.Round(float64(c.Avg.X[i]) / float64(maxX) * float64(width-1)))
			y := height - 1 - int(math.Round(c.Avg.Routing[i]/maxY*float64(height-1)))
			if y >= 0 && y < height && x >= 0 && x < width {
				grid[y][x] = sym
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (y-max %.3e, x-max %d)\n", title, maxY, maxX)
	for _, row := range grid {
		sb.WriteString("|")
		sb.Write(row)
		sb.WriteString("\n")
	}
	sb.WriteString("+" + strings.Repeat("-", width) + "\n")
	for ci, c := range curves {
		fmt.Fprintf(&sb, "  %c %s(b=%d)\n", symbols[ci%len(symbols)], c.Alg, c.B)
	}
	return sb.String()
}
