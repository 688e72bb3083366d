package core

import "bomw/internal/device"

// Hooks for the external core_test package.

// SharedTestScheduler returns the package's shared trained scheduler
// with its devices reset.
var SharedTestScheduler = testScheduler

// TestDevices exposes the scheduler's live devices, so external tests
// can script interference on them.
func (s *Scheduler) TestDevices() []*device.Device { return s.cfg.Devices }
