// Layout-planner: size a Silica deployment the way §6 does. Given a
// yearly ingress volume, pick a platter-set shape, compute the Table 1
// write-overhead/rack trade-off, verify the durability budget, and
// place the first platter-sets into a floor plan with the blast-zone
// constraints.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"silica/internal/geometry"
	"silica/internal/layout"
	"silica/internal/media"
	"silica/internal/nc"
	"silica/internal/stats"
)

func main() {
	ingressPB := flag.Float64("ingress-pb", 2.0, "yearly ingress, petabytes")
	info := flag.Int("info", 16, "information platters per placed set")
	red := flag.Int("red", 3, "redundancy platters per placed set")
	sectorP := flag.Float64("sector-p", 1e-3, "per-sector LDPC failure probability")
	flag.Parse()

	geom := media.DefaultGeometry()
	perPlatter := float64(geom.PlatterUserBytes())
	plattersPerYear := int(*ingressPB*1e15/perPlatter) + 1
	fmt.Printf("planning for %.1f PB/year = %d platters/year (%.1f TB user data each)\n\n",
		*ingressPB, plattersPerYear, perPlatter/1e12)

	fmt.Println("platter-set options (Table 1):")
	fmt.Printf("  %-6s %-16s %-14s %s\n", "I+R", "write overhead", "storage racks", "set-loss p (platter p=1e-3)")
	for _, c := range [][2]int{{12, 3}, {16, 3}, {24, 3}} {
		loss := nc.GroupLossProb(nc.LevelParams{I: c[0], R: c[1]}, 1e-3)
		fmt.Printf("  %-6s %-16s %-14d %.2e\n",
			fmt.Sprintf("%d+%d", c[0], c[1]),
			fmt.Sprintf("%.1f%%", 100*layout.WriteOverhead(c[0], c[1])),
			layout.MinStorageRacks(c[0]+c[1], 10), loss)
	}

	fmt.Println("\ndurability budget per level (§5/§6):")
	h, err := nc.NewHierarchy(nc.Cauchy, 1)
	if err != nil {
		log.Fatal(err)
	}
	// %.0e pads the exponent (1e-03); the budget reads 1e-3.
	fmt.Printf("  sector LDPC failure (prototype): %s\n", strings.Replace(fmt.Sprintf("%.0e", *sectorP), "e-0", "e-", 1))
	fmt.Printf("  track decode failure at %d+%d:     %.2e\n",
		h.WithinTrack.I, h.WithinTrack.R, nc.TrackDecodeFailureProb(nc.DefaultWithinTrack, *sectorP))
	fmt.Printf("  total in-platter overhead:        %.1f%%\n", 100*h.TotalInPlatterOverhead())

	// Place sets of the requested shape (the paper chose 16+3).
	racks := layout.MinStorageRacks(*info+*red, 10)
	cfg := geometry.DefaultConfig()
	if racks > cfg.StorageRacks {
		cfg.StorageRacks = racks
	}
	l, err := geometry.NewLayout(cfg)
	if err != nil {
		log.Fatal(err)
	}
	placer := layout.NewPlacer(l)
	setsPlaced := 0
	for {
		slots, err := placer.PlaceSet(*info + *red)
		if err != nil {
			break // library full for this demo's constraints
		}
		if err := layout.ValidateSet(slots); err != nil {
			log.Fatal(err)
		}
		setsPlaced++
		if setsPlaced >= 20 {
			break
		}
	}
	libCapacity := float64(l.NumSlots()) * perPlatter * float64(*info) / float64(*info+*red)
	fmt.Printf("\nMDU floor plan: %d racks (%d storage), %d drives, %d slots -> %s user capacity\n",
		len(l.Racks), cfg.StorageRacks, l.NumDrives(), l.NumSlots(),
		stats.FormatBytes(libCapacity))
	fmt.Printf("placed %d platter-sets of %d+%d with disjoint blast zones (%d slots)\n",
		setsPlaced, *info, *red, placer.Occupied())
	librariesNeeded := float64(plattersPerYear) * float64(*info+*red) / float64(*info) / float64(l.NumSlots())
	fmt.Printf("ingress fills %.2f libraries per year\n", librariesNeeded)
}
