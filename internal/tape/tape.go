// Package tape is a digital twin of the incumbent: a robotic tape
// library of the kind the paper's §1–2 characterize. Modern tape is
// built for the disaster-recovery workload — kilometre-long media,
// minute-scale load/thread/spool times, gantry robots that serialize
// cartridge motion, and high streaming throughput (~360 MB/s). The
// paper's argument is that cloud archival traffic is the opposite
// shape (small reads dominate), so this model exists to be compared
// against the Silica library twin on the same traces.
//
// The model: requests queue and group per cartridge exactly as
// Silica's scheduler groups per platter; a free drive plus a free
// robot arm start a mount (robot fetch + load/thread), the drive
// spools to each file (long seeks — tape is sequential), streams it,
// and on drain rewinds/unloads with the robot returning the
// cartridge. Robot arms are few and shared; they are the library's
// choke point under IOPS load.
package tape

import (
	"fmt"

	"silica/internal/controller"
	"silica/internal/media"
	"silica/internal/sim"
	"silica/internal/stats"
)

// Config sizes a tape library.
type Config struct {
	Drives     int
	RobotArms  int
	Cartridges int
	// Throughput is the streaming rate, bytes/sec (LTO-class: ~360 MB/s).
	Throughput float64
	// RobotFetch is one robot trip (shelf->drive or back), seconds.
	RobotFetch float64
	// LoadThread is mounting + threading + position-to-BOT, seconds
	// ("spooling takes over a minute", §1).
	LoadThread float64
	// Unload is rewind + unthread, seconds. Tape must rewind before
	// eject; worst case is a full spool.
	Unload float64
	// Seek is the spool time distribution to a random file.
	SeekMean, SeekMax float64
	Seed              uint64
}

// DefaultConfig models a contemporary enterprise tape library sized
// like the Silica MDU: 20 drives, a handful of robot arms.
func DefaultConfig() Config {
	return Config{
		Drives:     20,
		RobotArms:  4,
		Cartridges: 4000,
		Throughput: 360e6,
		RobotFetch: 15,
		LoadThread: 75,
		Unload:     60,
		SeekMean:   45,
		SeekMax:    110,
		Seed:       1,
	}
}

// Library is the tape twin.
type Library struct {
	cfg   Config
	sim   *sim.Simulator
	rng   *sim.RNG
	sched *controller.Scheduler

	freeDrives int
	freeArms   int
	armQueue   []func() // work waiting for a robot arm
	busyTape   map[media.PlatterID]bool

	completions *stats.Sample
	mounts      int
}

// New builds a tape library.
func New(cfg Config) (*Library, error) {
	if cfg.Drives < 1 || cfg.RobotArms < 1 || cfg.Cartridges < 1 || cfg.Throughput <= 0 {
		return nil, fmt.Errorf("tape: invalid config %+v", cfg)
	}
	return &Library{
		cfg:         cfg,
		sim:         sim.New(),
		rng:         sim.NewRNG(cfg.Seed).Fork("tape"),
		sched:       controller.NewScheduler(1),
		freeDrives:  cfg.Drives,
		freeArms:    cfg.RobotArms,
		busyTape:    make(map[media.PlatterID]bool),
		completions: stats.NewSample(),
	}, nil
}

// Mounts reports how many cartridge mounts the run needed.
func (l *Library) Mounts() int { return l.mounts }

// Submit queues a read request (Platter is interpreted as a cartridge).
func (l *Library) Submit(req *controller.Request) {
	l.sched.Add(req, 0)
	l.dispatch()
}

// withArm runs fn while holding a robot arm for dur seconds.
func (l *Library) withArm(dur float64, fn func()) {
	task := func() {
		l.freeArms--
		l.sim.Schedule(dur, func() {
			l.freeArms++
			fn()
			l.pumpArms()
		})
	}
	if l.freeArms > 0 {
		task()
		return
	}
	l.armQueue = append(l.armQueue, task)
}

func (l *Library) pumpArms() {
	for l.freeArms > 0 && len(l.armQueue) > 0 {
		t := l.armQueue[0]
		l.armQueue = l.armQueue[1:]
		t()
	}
}

func (l *Library) dispatch() {
	for l.freeDrives > 0 {
		tape, ok := l.sched.SelectPlatter(0, func(p media.PlatterID) bool { return !l.busyTape[p] })
		if !ok {
			return
		}
		reqs := l.sched.Take(tape)
		l.busyTape[tape] = true
		l.freeDrives--
		l.mounts++
		// Robot fetches the cartridge, then the drive loads/threads.
		l.withArm(l.cfg.RobotFetch, func() {
			l.sim.Schedule(l.cfg.LoadThread, func() {
				l.service(tape, reqs)
			})
		})
	}
}

// service spools to and streams each request, absorbing late arrivals
// for the mounted cartridge, then unloads.
func (l *Library) service(tape media.PlatterID, reqs []*controller.Request) {
	if late := l.sched.Take(tape); len(late) > 0 {
		reqs = append(reqs, late...)
	}
	if len(reqs) == 0 {
		// Drain done: rewind/unload, robot returns the cartridge.
		l.sim.Schedule(l.cfg.Unload, func() {
			l.withArm(l.cfg.RobotFetch, func() {
				l.busyTape[tape] = false
				l.freeDrives++
				l.dispatch()
			})
		})
		return
	}
	var offset float64
	for _, r := range reqs {
		r := r
		// Spool seek: triangular-ish around the mean, capped.
		seek := l.rng.Range(0.3, 1.7) * l.cfg.SeekMean
		if seek > l.cfg.SeekMax {
			seek = l.cfg.SeekMax
		}
		offset += seek + float64(r.Bytes)/l.cfg.Throughput
		l.sim.Schedule(offset, func() {
			l.completions.Add(l.sim.Now() - r.Arrival)
			if r.Done != nil {
				r.Done(l.sim.Now())
			}
		})
	}
	l.sim.Schedule(offset, func() { l.service(tape, nil) })
}

// RunTrace submits all requests at their arrival times and runs to
// completion.
func (l *Library) RunTrace(reqs []*controller.Request, horizon float64) {
	for _, r := range reqs {
		r := r
		l.sim.At(r.Arrival, func() { l.Submit(r) })
	}
	l.sim.Run()
	_ = horizon
}
