"""Daily travel-demand prediction for event venues.

Pipeline: ingest trips -> catalog events -> decompose demand into a regular
weekday baseline and event deviations -> prompt a chat model for next-day
predictions with reasoning -> evaluate against classical baselines over an
ablation grid. Offline-reproducible via scripted mock backends and a
content-addressed response cache.
"""

__version__ = "0.1.0"
